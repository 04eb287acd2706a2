package scentd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/zmap"
)

// Synthetic-fixture half: store semantics, snapshot isolation and the
// wire protocol are exercised with deterministic hand-built days (fast,
// no simulator); the end-to-end half at the bottom runs real campaigns.

func fixtureRIB() *bgp.Table {
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"})
	return rib
}

func fixtureAddr(d, p int) ip6.Addr {
	mac := ip6.MAC{0x38, 0x10, 0xd5, 0, byte(d >> 8), byte(d)}
	pfx := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x100+p))
	return pfx.Addr().WithIID(ip6.EUI64FromMAC(mac))
}

// feedDay streams one synthetic day into any Record/AddProbes sink:
// each of n devices answers from a day-dependent /64.
func feedDay(day, n int, record func(target, from ip6.Addr), addProbes func(uint64)) {
	for d := 0; d < n; d++ {
		a := fixtureAddr(d, (d+day)%7)
		record(a, a)
		record(ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x200+d)).Addr().WithIID(a.IID()), a)
	}
	addProbes(uint64(n * 4))
}

// ingestFixtureDay commits one synthetic day into a store.
func ingestFixtureDay(t *testing.T, st *scentd.Store, day, n int) {
	t.Helper()
	di, err := st.BeginDay(day)
	if err != nil {
		t.Fatal(err)
	}
	feedDay(day, n, di.Record, di.AddProbes)
	if err := di.Commit(); err != nil {
		t.Fatal(err)
	}
}

// batchCorpusThrough builds the plain batch corpus over days [0, days).
func batchCorpusThrough(days, n int) *core.Corpus {
	c := core.NewCorpus(fixtureRIB())
	for day := 0; day < days; day++ {
		sd := c.NewScanDay(day)
		feedDay(day, n, sd.Record, sd.AddProbes)
		sd.Commit()
	}
	return c
}

func corpusBytes(t *testing.T, c *core.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// queryOps are the read-only requests the concurrency tests fire.
func queryOps() []scentd.Request {
	return []scentd.Request{
		{Op: "stats"},
		{Op: "vendors"},
		{Op: "pools"},
		{Op: "prefixes", IID: fmt.Sprintf("%016x", fixtureAddr(0, 0).IID())},
		{Op: "lookup", Addr: fixtureAddr(1, 1).String()},
	}
}

func respJSON(t *testing.T, resp scentd.Response) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startServer serves st on a loopback listener and returns its address.
func startServer(t *testing.T, srv *scentd.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestScentdSnapshotIsolationUnderRace is the tentpole proof: N
// concurrent clients query over real TCP while the main goroutine
// ingests day after day. Every response must be byte-identical to the
// batch answer over the day set it claims — a torn read (one index
// from day k, another from day k+1) produces bytes matching no batch
// state and fails. Run with -race to also catch unsynchronized access.
func TestScentdSnapshotIsolationUnderRace(t *testing.T) {
	const days, devices, clients = 5, 24, 8

	// Oracle: for every committed-day count, the batch answer bytes.
	reg := oui.Builtin()
	oracle := make([]map[string][]byte, days+1)
	for k := 0; k <= days; k++ {
		snap := batchCorpusThrough(k, devices).Snapshot()
		oracle[k] = map[string][]byte{}
		for _, req := range queryOps() {
			oracle[k][req.Op] = respJSON(t, scentd.Answer(snap, reg, req))
		}
	}

	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := startServer(t, &scentd.Server{Store: st})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := scentd.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			ops := queryOps()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				req := ops[(n+i)%len(ops)]
				resp, err := c.Do(req)
				if err != nil {
					errc <- err
					return
				}
				k := len(resp.Days)
				if k > days {
					errc <- fmt.Errorf("response claims %d days, only %d ever committed", k, days)
					return
				}
				if got, want := respJSON(t, resp), oracle[k][req.Op]; !bytes.Equal(got, want) {
					errc <- fmt.Errorf("op %s at %d days: served answer diverges from batch:\n got %s\nwant %s",
						req.Op, k, got, want)
					return
				}
			}
		}(i)
	}

	for day := 0; day < days; day++ {
		ingestFixtureDay(t, st, day, devices)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Post-ingest: the final served state equals the full batch corpus.
	final := respJSON(t, scentd.Answer(st.Snapshot(), reg, scentd.Request{Op: "stats"}))
	if !bytes.Equal(final, oracle[days]["stats"]) {
		t.Errorf("final stats diverge from batch: %s vs %s", final, oracle[days]["stats"])
	}
}

// TestScentdRestartEqualsUninterrupted is the durability proof: a store
// killed between days and reopened — even with a torn half-written
// segment at the tail — converges on exactly the corpus and answers an
// uninterrupted ingestion produces.
func TestScentdRestartEqualsUninterrupted(t *testing.T) {
	const days, devices = 4, 16
	dir := t.TempDir()
	rib := fixtureRIB

	// Uninterrupted run.
	stA, err := scentd.OpenStore(filepath.Join(dir, "a.journal"), rib())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		ingestFixtureDay(t, stA, day, devices)
	}
	want := corpusBytes(t, stA.Snapshot().Corpus())
	stA.Close()

	// Interrupted run: two days, a hard kill mid-append, restart.
	pathB := filepath.Join(dir, "b.journal")
	stB, err := scentd.OpenStore(pathB, rib())
	if err != nil {
		t.Fatal(err)
	}
	ingestFixtureDay(t, stB, 0, devices)
	ingestFixtureDay(t, stB, 1, devices)
	stB.Close()
	// The crash left a torn segment: a day header and one obs line,
	// no endday.
	f, err := os.OpenFile(pathB, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "day 2\nprobes 64\nobs %016x 2 %s %016x %016x 1\n",
		fixtureAddr(0, 2).IID(), fixtureAddr(0, 2), fixtureAddr(0, 2).High64(), fixtureAddr(0, 2).High64())
	f.Close()

	stB2, err := scentd.OpenStore(pathB, rib())
	if err != nil {
		t.Fatal(err)
	}
	defer stB2.Close()
	if got := stB2.Corpus().Days(); len(got) != 2 {
		t.Fatalf("restarted store has days %v, want the 2 committed ones", got)
	}
	for day := 2; day < days; day++ {
		ingestFixtureDay(t, stB2, day, devices)
	}
	if got := corpusBytes(t, stB2.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Errorf("restarted corpus diverges from uninterrupted:\n%s\nvs\n%s", got, want)
	}

	// And the served answers are byte-identical too.
	reg := oui.Builtin()
	snapA := batchCorpusThrough(days, devices).Snapshot()
	for _, req := range queryOps() {
		got := respJSON(t, scentd.Answer(stB2.Snapshot(), reg, req))
		want := respJSON(t, scentd.Answer(snapA, reg, req))
		if !bytes.Equal(got, want) {
			t.Errorf("op %s: restarted answer diverges: %s vs %s", req.Op, got, want)
		}
	}
}

// TestStoreMisuse pins the ingestion-discipline errors.
func TestStoreMisuse(t *testing.T) {
	dir := t.TempDir()
	st, err := scentd.OpenStore(filepath.Join(dir, "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestFixtureDay(t, st, 0, 4)

	if _, err := st.BeginDay(0); err == nil {
		t.Error("re-ingesting an existing day did not error")
	}
	di, err := st.BeginDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginDay(2); err == nil {
		t.Error("two concurrent DayIngests did not error")
	}
	di.Abandon()
	if _, err := st.BeginDay(2); err != nil {
		t.Errorf("BeginDay after Abandon: %v", err)
	}

	// An abandoned day leaves no trace: counters stay at day 0's.
	snap := st.Snapshot()
	if got := snap.Days(); len(got) != 1 || got[0] != 0 {
		t.Errorf("snapshot days = %v, want [0]", got)
	}

	// A v1 snapshot file is a corpus, but not an appendable journal.
	v1 := filepath.Join(dir, "v1.corpus")
	var buf bytes.Buffer
	if err := batchCorpusThrough(1, 4).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scentd.OpenStore(v1, fixtureRIB()); err == nil {
		t.Error("OpenStore accepted a v1 snapshot file")
	}
}

// TestStoreCompactReplayEquivalence: compacting an N-day journal into
// one snap segment changes the bytes on disk but nothing observable —
// a store reopened from the compacted journal replays to the identical
// corpus, further days append normally, and compaction composes with
// itself. This is the journal-growth answer: N days of segments
// collapse into each observation appearing once.
func TestStoreCompactReplayEquivalence(t *testing.T) {
	const days, devices = 4, 16
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")

	st, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		ingestFixtureDay(t, st, day, devices)
	}
	want := corpusBytes(t, st.Snapshot().Corpus())
	preSize := fileSize(t, path)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got >= preSize {
		t.Errorf("compacted journal is %d bytes, not smaller than the %d-byte day-by-day one", got, preSize)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("\nendday ")) || !bytes.Contains(b, []byte("\nendsnap\n")) {
		t.Error("compacted journal still carries day segments (or no snap segment)")
	}

	// The live store is untouched by compaction...
	if got := corpusBytes(t, st.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Error("compaction changed the live corpus")
	}
	// ...and appends keep working on the swapped handle.
	ingestFixtureDay(t, st, days, devices)
	wantPlus := corpusBytes(t, st.Snapshot().Corpus())
	st.Close()

	// Replay equivalence: reopening the compacted-then-appended journal
	// reconstructs exactly the corpus the uninterrupted store serves.
	st2, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusBytes(t, st2.Snapshot().Corpus()); !bytes.Equal(got, wantPlus) {
		t.Error("corpus replayed from the compacted journal diverges")
	}
	// And the served answers match the batch oracle byte for byte.
	reg := oui.Builtin()
	snapB := batchCorpusThrough(days+1, devices).Snapshot()
	for _, req := range queryOps() {
		got := respJSON(t, scentd.Answer(st2.Snapshot(), reg, req))
		if want := respJSON(t, scentd.Answer(snapB, reg, req)); !bytes.Equal(got, want) {
			t.Errorf("op %s: answer after compaction diverges: %s vs %s", req.Op, got, want)
		}
	}

	// Compaction composes: a second compact folds the appended day into
	// the snap segment and still replays identically.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := corpusBytes(t, st3.Snapshot().Corpus()); !bytes.Equal(got, wantPlus) {
		t.Error("corpus replayed from the twice-compacted journal diverges")
	}

	// Compacting mid-ingest is refused: the open day is not yet corpus
	// history and must not be frozen into a snap segment.
	di, err := st3.BeginDay(days + 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Compact(); err == nil {
		t.Error("Compact succeeded with a DayIngest open")
	}
	di.Abandon()
	if err := st3.Compact(); err != nil {
		t.Errorf("Compact after Abandon: %v", err)
	}
}

// TestSnapSegmentPartialOverlapRejected pins the snap segment's
// indivisibility: loading one into a corpus that already holds some —
// but not all — of its days cannot apportion the segment's counters and
// must fail loudly rather than double-count.
func TestSnapSegmentPartialOverlapRejected(t *testing.T) {
	full := batchCorpusThrough(3, 8)
	var snap bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&snap); err != nil {
		t.Fatal(err)
	}
	if err := full.SaveSnap(&snap); err != nil {
		t.Fatal(err)
	}

	// Into a corpus holding a strict subset of the snap's days: error.
	partial := batchCorpusThrough(2, 8)
	if err := core.LoadCorpus(bytes.NewReader(snap.Bytes()), partial); err == nil {
		t.Error("snap segment partially overlapping the corpus loaded without error")
	}

	// Into a corpus holding every snap day: skipped whole, a no-op.
	same := batchCorpusThrough(3, 8)
	before := corpusBytes(t, same)
	if err := core.LoadCorpus(bytes.NewReader(snap.Bytes()), same); err != nil {
		t.Fatal(err)
	}
	if got := corpusBytes(t, same); !bytes.Equal(got, before) {
		t.Error("re-loading a fully-present snap segment changed the corpus")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestWireFrameLimits pins the framing edges: oversized frames are
// rejected, unknown ops answer with an error response, and errors
// still carry the snapshot's day set.
func TestWireFrameLimits(t *testing.T) {
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestFixtureDay(t, st, 0, 4)
	addr := startServer(t, &scentd.Server{Store: st})

	c, err := scentd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(scentd.Request{Op: "no-such-op"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("unknown op answered OK: %+v", resp)
	}
	if len(resp.Days) != 1 {
		t.Errorf("error response days = %v, want the snapshot's [0]", resp.Days)
	}
	resp, err = c.Do(scentd.Request{Op: "track", Addr: fixtureAddr(0, 0).String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("track answered OK on a server with no TrackBackend")
	}

	var huge bytes.Buffer
	if err := scentd.WriteFrame(&huge, scentd.Request{Addr: string(make([]byte, scentd.MaxFrame))}); err == nil {
		t.Error("WriteFrame accepted a frame over MaxFrame")
	}
}

// End-to-end half: real campaigns over the simulated Internet. -----------

const campaignSalt = uint64(0x5eed) ^ 0xca59 // the Study's default

// worldPools returns every rotation-pool prefix of the world — the
// campaign target set, known a priori instead of via the (slow)
// seed+discovery pipeline, which cmd/scentd runs but these tests skip.
func worldPools(env *experiments.Env) []ip6.Prefix {
	var out []ip6.Prefix
	for _, p := range env.World.Providers() {
		for _, pool := range p.Pools {
			out = append(out, pool.Prefix)
		}
	}
	return out
}

// ingestCampaign ingests a scanned campaign over prefixes into the
// store exactly as cmd/scentd does, resuming after any days the store
// already holds.
func ingestCampaign(t *testing.T, env *experiments.Env, st *scentd.Store, prefixes []ip6.Prefix, days int) {
	t.Helper()
	ctx := context.Background()
	ts, err := zmap.NewSubnetTargets(prefixes, 64, campaignSalt)
	if err != nil {
		t.Fatal(err)
	}
	have := st.Corpus().Days()
	start := 0
	if len(have) > 0 {
		start = have[len(have)-1] + 1
	}
	env.Wait(time.Duration(start) * 24 * time.Hour)
	for day := start; day < days; day++ {
		err := st.IngestScanDay(day, func(record func(target, from ip6.Addr)) (uint64, error) {
			stats, err := env.Scanner.Scan(ctx, ts, campaignSalt, func(r zmap.Result) {
				record(r.Target, r.From)
			})
			return stats.Sent, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if day != days-1 {
			env.Wait(24 * time.Hour)
		}
	}
}

// TestScentdIngestEqualsBatchCampaign: the incremental, journaled,
// snapshot-published ingestion path produces bit-for-bit the corpus
// the one-shot batch core.Campaign builds — over a real scanned
// campaign, not fixtures.
func TestScentdIngestEqualsBatchCampaign(t *testing.T) {
	const seed, days = 7, 3

	// Batch: core.Campaign in one shot.
	benv := experiments.NewSmallEnv(seed)
	bc := core.NewCorpus(benv.World.RIB())
	camp := core.Campaign{
		Scanner:  benv.Scanner,
		Corpus:   bc,
		Prefixes: worldPools(benv),
		Days:     days,
		Wait:     benv.Wait,
		Salt:     campaignSalt,
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := corpusBytes(t, bc)

	// Incremental: a fresh identical world, ingested day by day. The
	// store's RIB is the serving world's, so attribution lines up.
	env := experiments.NewSmallEnv(seed)
	st2, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c2.journal"), env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ingestCampaign(t, env, st2, worldPools(env), days)

	if got := corpusBytes(t, st2.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Error("incremental campaign corpus diverges from the batch campaign corpus")
	}
}

// TestScentdTrackOp: the live op=track endpoint, seeded from the
// snapshot's inferences, re-finds a rotated device — and produces the
// same history the direct in-process core.Tracker does on an identical
// world.
func TestScentdTrackOp(t *testing.T) {
	const seed, days, trackDays = 7, 3, 2

	// Server world: ingest, then serve with tracking enabled.
	env := experiments.NewSmallEnv(seed)
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestCampaign(t, env, st, worldPools(env), days)
	snap := st.Snapshot()

	// Subject: a device from the corpus, last seen at its most recent
	// observed address.
	iids := snap.Corpus().IIDs()
	if len(iids) == 0 {
		t.Fatal("campaign observed no devices")
	}
	rec, _ := snap.Corpus().Lookup(iids[0])
	last := rec.Days[len(rec.Days)-1].Resp

	addr := startServer(t, &scentd.Server{
		Store: st,
		Track: &scentd.TrackBackend{Scanner: env.Scanner, RIB: env.World.RIB(), Wait: env.Wait},
	})
	c, err := scentd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(scentd.Request{Op: "track", Addr: last.String(), Days: trackDays})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Track == nil {
		t.Fatalf("track failed: %+v", resp)
	}
	if len(resp.Track.History) != trackDays {
		t.Fatalf("track history has %d days, want %d", len(resp.Track.History), trackDays)
	}

	// Replica world: the same campaign then a direct core.Tracker run
	// must match the served history exactly.
	env2 := experiments.NewSmallEnv(seed)
	st2, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c2.journal"), env2.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ingestCampaign(t, env2, st2, worldPools(env2), days)
	snap2 := st2.Snapshot()
	tracker := &core.Tracker{
		Scanner:   env2.Scanner,
		RIB:       env2.World.RIB(),
		AllocBits: snap2.AllocationByAS(),
		PoolBits:  snap2.PoolByAS(),
	}
	state, err := core.NewTrackState(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Track(context.Background(), state, trackDays, 0x7ac4, env2.Wait); err != nil {
		t.Fatal(err)
	}
	for i, d := range state.History {
		got := resp.Track.History[i]
		if got.Found != d.Found || got.Probes != d.ProbesSent ||
			(d.Found && got.Addr != d.Addr.String()) {
			t.Errorf("track day %d: served %+v vs direct %+v", i, got, d)
		}
	}
}

// TestScentdTrackDedicatedEnv: with a NewSession backend — the mode
// cmd/scentd wires for in-process worlds — every track request runs in
// its own same-seed replica aligned to the snapshot's last committed
// day. The ingestion world's clock never moves, concurrent tracks agree
// exactly, and the history equals a direct core.Tracker run on an
// identically built replica.
func TestScentdTrackDedicatedEnv(t *testing.T) {
	const seed, days, trackDays = 7, 3, 2

	env := experiments.NewSmallEnv(seed)
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestCampaign(t, env, st, worldPools(env), days)
	snap := st.Snapshot()

	iids := snap.Corpus().IIDs()
	if len(iids) == 0 {
		t.Fatal("campaign observed no devices")
	}
	rec, _ := snap.Corpus().Lookup(iids[0])
	last := rec.Days[len(rec.Days)-1].Resp
	lastDay := snap.Days()[len(snap.Days())-1]

	// The session factory cmd/scentd installs: fresh replica, clock on
	// the last committed day.
	newSession := func(s *core.Snapshot) (*scentd.TrackSession, error) {
		senv := experiments.NewSmallEnv(seed)
		if d := s.Days(); len(d) > 0 {
			senv.Wait(time.Duration(d[len(d)-1]) * 24 * time.Hour)
		}
		return &scentd.TrackSession{Scanner: senv.Scanner, RIB: senv.World.RIB(), Wait: senv.Wait}, nil
	}
	addr := startServer(t, &scentd.Server{
		Store: st,
		Track: &scentd.TrackBackend{NewSession: newSession},
	})

	// Three concurrent tracks of the same device on separate
	// connections: dedicated sessions mean no serialization and no
	// cross-talk, so all three histories must be identical.
	clockBefore := env.World.Clock().Now()
	const clients = 3
	results := make([]*scentd.TrackResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := scentd.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			resp, err := c.Do(scentd.Request{Op: "track", Addr: last.String(), Days: trackDays})
			if err != nil {
				errs[i] = err
				return
			}
			if !resp.OK || resp.Track == nil {
				errs[i] = fmt.Errorf("track failed: %+v", resp)
				return
			}
			results[i] = resp.Track
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		a, b := respJSON(t, scentd.Response{Track: results[0]}), respJSON(t, scentd.Response{Track: results[i]})
		if !bytes.Equal(a, b) {
			t.Errorf("concurrent tracks diverge:\n%s\nvs\n%s", a, b)
		}
	}

	// The ingestion world's clock did not move: tracking ran entirely
	// off the shared ingestion clock.
	if got := env.World.Clock().Now(); !got.Equal(clockBefore) {
		t.Errorf("ingestion clock moved from %v to %v during tracking", clockBefore, got)
	}

	// Oracle: a direct core.Tracker on an identically built replica —
	// same seed, clock advanced to the same day.
	oenv := experiments.NewSmallEnv(seed)
	oenv.Wait(time.Duration(lastDay) * 24 * time.Hour)
	tracker := &core.Tracker{
		Scanner:   oenv.Scanner,
		RIB:       oenv.World.RIB(),
		AllocBits: snap.AllocationByAS(),
		PoolBits:  snap.PoolByAS(),
	}
	state, err := core.NewTrackState(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Track(context.Background(), state, trackDays, 0x7ac4, oenv.Wait); err != nil {
		t.Fatal(err)
	}
	if sum := core.Summarize(state); sum.DaysFound == 0 {
		t.Error("tracker never found the device — fixture subject is not trackable")
	}
	for i, d := range state.History {
		got := results[0].History[i]
		if got.Found != d.Found || got.Moved != d.Moved || got.Probes != d.ProbesSent ||
			(d.Found && got.Addr != d.Addr.String()) {
			t.Errorf("track day %d: served %+v vs direct %+v", i, got, d)
		}
	}
}

// journalPinDay feeds one day of the journal-pin fixture. Each of six
// devices answers from a day-dependent /64; every third device also
// answers from the next /64 the same day (a mid-scan rotation, so one
// IID carries two observations in one segment); one EUI-64 device sits
// outside the RIB (origin AS 0); and a non-EUI-64 responder moves only
// the counters.
func journalPinDay(day int, record func(target, from ip6.Addr), addProbes func(uint64)) {
	for d := 5; d >= 0; d-- {
		a := fixtureAddr(d, (d+day)%7)
		record(a, a)
		record(ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x200+d+day)).Addr().WithIID(a.IID()), a)
		if (d+day)%3 == 0 {
			b := fixtureAddr(d, (d+day+1)%7)
			record(b, b)
		}
	}
	unrouted := ip6.MustParsePrefix(fmt.Sprintf("2001:db8:%x::/64", day)).Addr().WithIID(fixtureAddr(9, 0).IID())
	record(unrouted, unrouted)
	plain := ip6.MustParseAddr(fmt.Sprintf("2001:16b8:300::%x", day+1))
	record(plain, plain)
	addProbes(uint64(40 + day))
}

// TestStoreJournalBytesPinned pins the journal a store writes, byte for
// byte: a fixed 3-day ingestion must produce exactly the file whose
// SHA-256 is recorded here. Old journals must replay and new ones must
// stay readable by older binaries, so how a day segment is produced may
// change but not one byte of what it contains.
func TestStoreJournalBytesPinned(t *testing.T) {
	const want = "1e04eb5286b363016dc95124cc213263f58d34a66103eabf9f5671bd54a33adb"
	path := filepath.Join(t.TempDir(), "pin.journal")
	st, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		di, err := st.BeginDay(day)
		if err != nil {
			t.Fatal(err)
		}
		journalPinDay(day, di.Record, di.AddProbes)
		if err := di.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("journal SHA-256 = %s, want %s; journal:\n%s", got, want, raw)
	}
}
