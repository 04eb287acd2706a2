package core

import (
	"bytes"
	"sort"
	"sync"

	"followscent/internal/ip6"
)

// Snapshot is an immutable view of a Corpus at one ingestion boundary
// plus the derived indexes the serving layer queries (OUI → vendor
// population, per-AS allocation/pool inferences). It shares committed
// observations with the live corpus: commits only append to a record's
// Days, and the snapshot holds each slice capped at the length it had,
// so nothing it reads is ever written again. A Snapshot is therefore
// safe for unlimited concurrent readers while the originating Corpus
// keeps ingesting, and every answer it gives is byte-identical to the
// batch computation over the day set it captured, because it *is* that
// batch computation over a frozen view.
type Snapshot struct {
	c    *Corpus // frozen: never mutated after Snapshot returns
	days []int

	// Per-AS inferences are derived lazily (once per snapshot): most
	// commits never see a `pools` query before the next snapshot
	// supersedes them.
	inferOnce sync.Once
	allocByAS map[uint32]int
	poolByAS  map[uint32]int
}

// Snapshot freezes the corpus into an immutable view. It copies the
// counter totals, the day set and every record header, but shares each
// record's committed observations rather than copying them, so a
// snapshot costs O(records), not O(observations). The per-address
// uniqueness sets are folded into counters (exactly as Save persists
// them).
func (c *Corpus) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl := &Corpus{
		rib:            c.rib,
		iids:           make(map[IID]*IIDRecord, len(c.iids)),
		TotalProbes:    c.TotalProbes,
		TotalResponses: c.TotalResponses,
		totalAddrs:     map[ip6.Addr]struct{}{},
		euiAddrs:       map[ip6.Addr]struct{}{},
		days:           make(map[int]struct{}, len(c.days)),
		// Fold the live sets into the carried counters, like Save does.
		loadedTotalAddrs: len(c.totalAddrs) + c.loadedTotalAddrs,
		loadedEUIAddrs:   len(c.euiAddrs) + c.loadedEUIAddrs,
	}
	slab := make([]IIDRecord, 0, len(c.iids))
	for iid, rec := range c.iids {
		slab = append(slab, *rec)
		nr := &slab[len(slab)-1]
		// Capped at its length: a later append to the live record can
		// never write into memory this view reads.
		nr.Days = rec.Days[:len(rec.Days):len(rec.Days)]
		cl.iids[iid] = nr
	}
	days := make([]int, 0, len(c.days))
	for d := range c.days {
		cl.days[d] = struct{}{}
		days = append(days, d)
	}
	sort.Ints(days)
	return &Snapshot{c: cl, days: days}
}

// Corpus exposes the frozen copy for the full batch API (TimeSeries,
// AllocationSamples, Save, …). Callers must treat it as read-only: the
// snapshot's isolation guarantee is exactly that nothing writes here.
func (s *Snapshot) Corpus() *Corpus { return s.c }

// Days returns the committed scan-day set the snapshot captured,
// sorted ascending. The returned slice is shared — do not modify.
func (s *Snapshot) Days() []int { return s.days }

// NumIIDs returns the distinct EUI-64 IID count.
func (s *Snapshot) NumIIDs() int { return s.c.NumIIDs() }

// Observed resolves a response address ever seen in the corpus to its
// IID — the address → device-history index. Records are keyed by their
// responses' IID, so only that one record's observations are searched.
func (s *Snapshot) Observed(a ip6.Addr) (IID, bool) {
	iid := IID(a.IID())
	rec, ok := s.c.iids[iid]
	if !ok {
		return 0, false
	}
	for i := range rec.Days {
		if rec.Days[i].Resp == a {
			return iid, true
		}
	}
	return 0, false
}

// OUICount is one vendor-census row: how many distinct devices carry
// MACs from one OUI block.
type OUICount struct {
	OUI     ip6.OUI
	Devices int
}

// VendorCensus counts devices per vendor OUI, optionally restricted to
// devices observed inside pool (zero Prefix = whole corpus). Rows are
// sorted by descending population, ties by OUI, so the census is
// deterministic. The counts do not depend on the order records are
// visited in, so the records are walked unsorted.
func (s *Snapshot) VendorCensus(pool ip6.Prefix) []OUICount {
	counts := map[ip6.OUI]int{}
	for iid, rec := range s.c.iids {
		mac, ok := ip6.MACFromEUI64(uint64(iid))
		if !ok {
			continue
		}
		if !pool.IsZero() {
			in := false
			for i := range rec.Days {
				if pool.Contains(rec.Days[i].Resp) {
					in = true
					break
				}
			}
			if !in {
				continue
			}
		}
		counts[mac.OUI()]++
	}
	out := make([]OUICount, 0, len(counts))
	for o, n := range counts {
		out = append(out, OUICount{OUI: o, Devices: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return bytes.Compare(out[i].OUI[:], out[j].OUI[:]) < 0
	})
	return out
}

// infer runs the Algorithm 1/2 batch inferences once per snapshot:
// allocation samples pooled over every captured day, pool samples over
// the whole corpus, both reduced to per-AS medians. It equals
// AllocationSizeByAS over every day's AllocationSamples and
// PoolSizeByAS(PoolSamples()), in one unsorted pass over the records: a
// median does not depend on sample order, and every observation's day
// is a captured day (Commit records both).
func (s *Snapshot) infer() {
	s.inferOnce.Do(func() {
		var alloc []AllocationSample
		pool := make([]PoolSample, 0, len(s.c.iids))
		var widest []allocDay
		for iid, rec := range s.c.iids {
			widest = rec.widestSpans(widest[:0])
			for _, w := range widest {
				alloc = append(alloc, AllocationSample{IID: iid, ASN: w.asn, Bits: prefixFromSpan(w.bits)})
			}
			pool = append(pool, s.c.poolSampleLocked(rec))
		}
		s.allocByAS = AllocationSizeByAS(alloc)
		s.poolByAS = PoolSizeByAS(pool)
	})
}

// AllocationByAS is Algorithm 1 over every captured day: the per-AS
// median customer-allocation prefix length. The returned map is shared
// — do not modify.
func (s *Snapshot) AllocationByAS() map[uint32]int {
	s.infer()
	return s.allocByAS
}

// PoolByAS is Algorithm 2 over the whole captured corpus: the per-AS
// median rotation-pool prefix length. The returned map is shared — do
// not modify.
func (s *Snapshot) PoolByAS() map[uint32]int {
	s.infer()
	return s.poolByAS
}
