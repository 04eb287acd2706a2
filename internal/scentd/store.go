// Package scentd is the serving layer: it turns the batch measurement
// library into continuously-operated tracking infrastructure. A Store
// ingests scan observations day by day into a core.Corpus, journals
// every committed day to an append-only v2 corpus file, and publishes
// an immutable core.Snapshot at each commit boundary; a Server answers
// concurrent client queries against whichever snapshot is current.
//
// The isolation contract: queries never see a half-ingested day.
// Ingestion mutates the live corpus freely, but the snapshot pointer
// advances only inside DayIngest.Commit, after the day's aggregation,
// journal append, and counter deltas are all complete. Every answer is
// therefore byte-identical to the batch computation over the snapshot's
// day set — the snapshot *is* that batch computation, over a frozen
// view that shares the corpus's committed (append-only) observations.
package scentd

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
)

// Store is a journal-backed corpus with atomically published snapshots.
// One goroutine ingests (BeginDay → Record/AddProbes → Commit); any
// number of goroutines read via Snapshot.
type Store struct {
	path string
	f    *os.File // append-only journal handle
	c    *core.Corpus

	snap atomic.Pointer[core.Snapshot]

	mu        sync.Mutex
	ingesting bool  // a DayIngest is open
	broken    error // sticky: a failed journal append poisons the store
}

// OpenStore opens (or creates) the journal at path and replays it into
// a fresh corpus attributed against rib. A torn trailing segment — the
// mark of a crash mid-append — is truncated away so the next append
// starts on a clean boundary; the day it carried was never committed,
// so nothing is lost that was ever queryable. The initial snapshot
// reflects the replayed corpus.
func OpenStore(path string, rib *bgp.Table) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scentd: opening store: %w", err)
	}
	st := &Store{path: path, f: f, c: core.NewCorpus(rib)}
	if err := st.replay(); err != nil {
		f.Close()
		return nil, err
	}
	st.snap.Store(st.c.Snapshot())
	return st, nil
}

// replay loads the journal into the corpus and truncates any torn tail.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("scentd: store: %w", err)
	}
	if info.Size() == 0 {
		if err := core.WriteCorpusJournalHeader(s.f); err != nil {
			return fmt.Errorf("scentd: %s: %w", s.path, err)
		}
		return s.f.Sync()
	}
	good, err := completeJournalLen(s.f)
	if err != nil {
		return fmt.Errorf("scentd: %s: %w", s.path, err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("scentd: store: %w", err)
	}
	if err := core.LoadCorpus(io.LimitReader(s.f, good), s.c); err != nil {
		return fmt.Errorf("scentd: %s: %w", s.path, err)
	}
	if good < info.Size() {
		if err := s.f.Truncate(good); err != nil {
			return fmt.Errorf("scentd: truncating torn tail of %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("scentd: store: %w", err)
	}
	return nil
}

// completeJournalLen scans the journal and returns the byte length of
// its longest well-formed prefix: the header plus every segment closed
// by an `endday` (or, after compaction, `endsnap`) marker. It also
// rejects non-journal files early (a v1
// snapshot is a valid corpus but not appendable — the caller would
// corrupt it).
func completeJournalLen(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(f)
	var off, good int64
	first := true
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF && line == "" {
			return good, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		off += int64(len(line))
		text := strings.TrimSpace(line)
		if first {
			if text != "# followscent corpus v2" {
				return 0, fmt.Errorf("not an appendable v2 journal (found %q; convert v1 snapshots by re-ingesting)", text)
			}
			first = false
			good = off
		} else if strings.HasPrefix(text, "endday ") || text == "endsnap" {
			good = off
		}
		if err == io.EOF {
			return good, nil
		}
	}
}

// Snapshot returns the currently published snapshot: the corpus as of
// the last committed day. Never nil after OpenStore; safe from any
// goroutine.
func (s *Store) Snapshot() *core.Snapshot { return s.snap.Load() }

// Corpus exposes the live corpus for ingestion-side bookkeeping (day
// membership, counters). Readers serving queries must use Snapshot.
func (s *Store) Corpus() *core.Corpus { return s.c }

// Close releases the journal handle. Outstanding DayIngests must be
// committed or abandoned first.
func (s *Store) Close() error { return s.f.Close() }

// DayIngest accumulates one scan day. Obtain with BeginDay, feed every
// probe result through Record, account probes with AddProbes, then
// Commit — which journals the day, publishes the new snapshot, and
// makes the day durable.
//
// The ingest buffers its observations and touches the corpus only
// inside Commit. That keeps the live corpus byte-for-byte equal to the
// journal between commits: an abandoned day leaves no trace anywhere
// (not even in the global response counters, which core.ScanDay.Record
// would otherwise bump immediately), so a restart replaying the journal
// reconstructs exactly the state an uninterrupted run serves.
type DayIngest struct {
	s      *Store
	day    int
	recs   []probeRec
	probes uint64
}

type probeRec struct{ target, from ip6.Addr }

// BeginDay starts ingesting the given day. It fails if the store is
// broken, another DayIngest is open (one ingester at a time — days are
// a total order), or the day is already in the corpus.
func (s *Store) BeginDay(day int) (*DayIngest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return nil, fmt.Errorf("scentd: store is broken: %w", s.broken)
	}
	if s.ingesting {
		return nil, fmt.Errorf("scentd: another day is being ingested")
	}
	for _, d := range s.c.Days() {
		if d == day {
			return nil, fmt.Errorf("scentd: day %d already ingested", day)
		}
	}
	s.ingesting = true
	return &DayIngest{s: s, day: day}, nil
}

// Record buffers one probe result (the probed target and the response
// source). Like core.ScanDay.Record, it is fed from one scan's handler
// and is not itself goroutine-safe.
func (d *DayIngest) Record(target, from ip6.Addr) {
	d.recs = append(d.recs, probeRec{target, from})
}

// AddProbes accounts probes sent this day (responsive or not).
func (d *DayIngest) AddProbes(n uint64) { d.probes += n }

// Commit applies the buffered day to the corpus, appends its journal
// segment, and publishes the new snapshot. On journal failure the
// store goes sticky-broken: the in-memory corpus and the file
// disagree, and serving on must not pretend otherwise.
func (d *DayIngest) Commit() error {
	s := d.s
	probes0, responses0 := s.c.Totals()
	total0, eui0 := s.c.UniqueAddrs()
	sd := s.c.NewScanDay(d.day)
	for _, r := range d.recs {
		sd.Record(r.target, r.from)
	}
	sd.AddProbes(d.probes)
	obs := sd.Commit()
	probes, responses := s.c.Totals()
	total, eui := s.c.UniqueAddrs()
	meta := core.DaySegmentMeta{
		Probes:        probes - probes0,
		Responses:     responses - responses0,
		NewTotalAddrs: total - total0,
		NewEUIAddrs:   eui - eui0,
	}
	err := core.WriteDaySegment(s.f, d.day, meta, obs)
	if err == nil {
		err = s.f.Sync()
	}
	s.mu.Lock()
	s.ingesting = false
	if err != nil {
		s.broken = fmt.Errorf("journaling day %d: %w", d.day, err)
		s.mu.Unlock()
		return fmt.Errorf("scentd: %w", s.broken)
	}
	s.mu.Unlock()
	s.snap.Store(s.c.Snapshot())
	return nil
}

// Abandon discards an uncommitted DayIngest, freeing the store for the
// next BeginDay. Nothing reached the corpus or the journal.
func (d *DayIngest) Abandon() {
	d.s.mu.Lock()
	d.s.ingesting = false
	d.s.mu.Unlock()
}

// Compact rewrites the journal as its header plus one snap segment
// covering every committed day — an N-day journal collapses into a
// single segment holding each observation once instead of one segment
// per day. The rewrite goes to a temporary file in the same directory,
// is fsynced, and replaces the journal with an atomic rename: a crash
// at any point leaves either the old day-by-day journal or the complete
// compacted one, never a mix. Replaying the compacted journal
// reconstructs the identical corpus (TestStoreCompactReplayEquivalence)
// and later days append after the snap segment exactly as before.
// Compact fails while a DayIngest is open; a failure after the rename
// (reopening the new journal) leaves the store broken, like a failed
// append would.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.broken != nil {
		s.mu.Unlock()
		return fmt.Errorf("scentd: store is broken: %w", s.broken)
	}
	if s.ingesting {
		s.mu.Unlock()
		return fmt.Errorf("scentd: cannot compact while a day is being ingested")
	}
	// Hold the ingestion slot so no day lands between the rewrite and
	// the handle swap.
	s.ingesting = true
	s.mu.Unlock()
	done := func(err error, sticky bool) error {
		s.mu.Lock()
		s.ingesting = false
		if err != nil && sticky {
			s.broken = err
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("scentd: compacting %s: %w", s.path, err)
		}
		return nil
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return done(err, false)
	}
	err = core.WriteCorpusJournalHeader(tmp)
	if err == nil {
		err = s.c.SaveSnap(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return done(err, false)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return done(err, false)
	}
	// The journal on disk is now the compacted one; the old handle
	// points at the unlinked file. Swap to a handle positioned at the
	// new end — failure here leaves handle and file out of step, which
	// is exactly what broken means.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return done(err, true)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return done(err, true)
	}
	s.f.Close()
	s.f = f
	return done(nil, false)
}

// IngestScanDay runs one scanner pass over ts and commits it as the
// given day — the convenience wrapper cmd/scentd and tests use to
// splice live scanning into the store.
func (s *Store) IngestScanDay(day int, scan func(record func(target, from ip6.Addr)) (sent uint64, err error)) error {
	di, err := s.BeginDay(day)
	if err != nil {
		return err
	}
	sent, err := scan(di.Record)
	if err != nil {
		di.Abandon()
		return fmt.Errorf("scentd: scanning day %d: %w", day, err)
	}
	di.AddProbes(sent)
	return di.Commit()
}

// WaitFunc advances time between ingested days (virtual in tests and
// simulations, wall-clock in production).
type WaitFunc func(time.Duration)
