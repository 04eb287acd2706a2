// Package core implements the paper's measurement methodology: the
// allocation-size and rotation-pool inference algorithms (§3.2,
// Algorithms 1-2), the Internet-wide rotating-prefix discovery pipeline
// (§4), the longitudinal campaign analyses (§5), and the targeted device
// tracker (§6).
//
// Everything here consumes only probe observations — ⟨target, response
// source⟩ pairs over time — through the zmap Scanner abstraction. The
// package never imports the network simulator; pointed at a raw-socket
// transport it would measure the real Internet.
package core

import (
	"slices"
	"sort"
	"sync"

	"followscent/internal/bgp"
	"followscent/internal/ip6"
)

// IID is a 64-bit interface identifier (the lower half of an address).
type IID uint64

// DayObs aggregates one device-day: every probe on `Day` whose response
// came from the same source address `Resp`.
type DayObs struct {
	Day  int
	Resp ip6.Addr // the responding WAN address
	// MinTargetHi/MaxTargetHi bound the upper-64 bits of the *probed*
	// targets answered by Resp that day — Algorithm 1's input.
	MinTargetHi, MaxTargetHi uint64
	// Count is how many probes Resp answered that day.
	Count int
	// ASN is Resp's origin AS (0 if unrouted), attributed at commit.
	ASN uint32
}

// IIDRecord accumulates everything the campaign learned about one EUI-64
// interface identifier. Commits only ever append to Days and never
// rewrite an element, so a Snapshot shares the committed prefix of the
// slice instead of copying it.
type IIDRecord struct {
	IID  IID
	Days []DayObs // chronological; multiple entries per day possible
	// MinRespHi/MaxRespHi bound the upper-64 bits of every response
	// address ever seen for this IID — Algorithm 2's input.
	MinRespHi, MaxRespHi uint64
	// prefixes is the number of distinct /64 prefixes in Days.
	prefixes int
}

// PrefixCount returns the number of distinct /64s the IID appeared in
// (Figure 8).
func (r *IIDRecord) PrefixCount() int { return r.prefixes }

// ASNs returns the origin ASes the IID was observed in, sorted.
func (r *IIDRecord) ASNs() []uint32 {
	if asn, ok := r.singleASN(); ok {
		return []uint32{asn}
	}
	byAS := r.daysByAS()
	out := make([]uint32, 0, len(byAS))
	for asn := range byAS {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// singleASN reports the origin AS of every observation when they all
// share one — the common case, answered without allocating.
func (r *IIDRecord) singleASN() (uint32, bool) {
	if len(r.Days) == 0 {
		return 0, false
	}
	asn := r.Days[0].ASN
	for i := 1; i < len(r.Days); i++ {
		if r.Days[i].ASN != asn {
			return 0, false
		}
	}
	return asn, true
}

// daysByAS maps each origin AS to the distinct days the IID was
// observed in it, sorted ascending (§5.5 pathologies).
func (r *IIDRecord) daysByAS() map[uint32][]int {
	out := map[uint32][]int{}
	for i := range r.Days {
		d := &r.Days[i]
		out[d.ASN] = append(out[d.ASN], d.Day)
	}
	for asn, days := range out {
		slices.Sort(days)
		out[asn] = slices.Compact(days)
	}
	return out
}

// MAC recovers the embedded hardware address.
func (r *IIDRecord) MAC() (ip6.MAC, bool) { return ip6.MACFromEUI64(uint64(r.IID)) }

// Corpus is the accumulated campaign dataset: per-IID records plus
// per-day global statistics. A Corpus is safe for concurrent AddScan
// calls from one scan at a time interleaved with reads.
type Corpus struct {
	rib *bgp.Table

	mu   sync.RWMutex
	iids map[IID]*IIDRecord

	// Totals across the campaign (the §5 headline numbers).
	TotalProbes    uint64
	TotalResponses uint64
	totalAddrs     map[ip6.Addr]struct{} // unique response addresses
	euiAddrs       map[ip6.Addr]struct{} // unique EUI-64 response addresses
	days           map[int]struct{}
	// Counters carried over from loaded corpus files, whose per-address
	// sets are not persisted (see corpus_io.go).
	loadedTotalAddrs int
	loadedEUIAddrs   int
}

// NewCorpus returns an empty corpus attributing addresses via rib.
func NewCorpus(rib *bgp.Table) *Corpus {
	return &Corpus{
		rib:        rib,
		iids:       make(map[IID]*IIDRecord),
		totalAddrs: make(map[ip6.Addr]struct{}),
		euiAddrs:   make(map[ip6.Addr]struct{}),
		days:       make(map[int]struct{}),
	}
}

// ScanDay collects one day's scan into the corpus. Use NewScanDay, feed
// it every probe result, then Commit.
type ScanDay struct {
	c   *Corpus
	day int
	// agg groups by (IID, response address) for the day.
	agg map[dayKey]*DayObs
}

type dayKey struct {
	iid  IID
	resp ip6.Addr
}

// NewScanDay starts collecting observations for the given day index.
func (c *Corpus) NewScanDay(day int) *ScanDay {
	return &ScanDay{c: c, day: day, agg: make(map[dayKey]*DayObs)}
}

// Record adds one probe result: the probed target and the source of the
// response. Non-EUI-64 responses update the global counters only, as in
// the paper (14.8M of 19.4M discovered addresses were EUI-64; only those
// drive the per-IID analyses).
func (s *ScanDay) Record(target, from ip6.Addr) {
	c := s.c
	c.mu.Lock()
	c.TotalResponses++
	c.totalAddrs[from] = struct{}{}
	isEUI := ip6.AddrIsEUI64(from)
	if isEUI {
		c.euiAddrs[from] = struct{}{}
	}
	c.mu.Unlock()
	if !isEUI {
		return
	}
	k := dayKey{IID(from.IID()), from}
	obs, ok := s.agg[k]
	if !ok {
		obs = &DayObs{Day: s.day, Resp: from, MinTargetHi: target.High64(), MaxTargetHi: target.High64()}
		s.agg[k] = obs
	}
	hi := target.High64()
	if hi < obs.MinTargetHi {
		obs.MinTargetHi = hi
	}
	if hi > obs.MaxTargetHi {
		obs.MaxTargetHi = hi
	}
	obs.Count++
}

// AddProbes accounts probes sent (responsive or not).
func (s *ScanDay) AddProbes(n uint64) {
	s.c.mu.Lock()
	s.c.TotalProbes += n
	s.c.mu.Unlock()
}

// Commit merges the day's aggregation into the corpus and returns the
// merged observations sorted by (IID, response address) — the order a
// journal day segment lists them in (WriteDaySegment). It only appends
// to each record's Days, which is what lets snapshots share them.
func (s *ScanDay) Commit() []DayObs {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.days[s.day] = struct{}{}
	// Deterministic merge order (map iteration is randomized).
	merged := make([]DayObs, 0, len(s.agg))
	for _, obs := range s.agg {
		merged = append(merged, *obs)
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i].Resp, merged[j].Resp
		if ia, ib := a.IID(), b.IID(); ia != ib {
			return ia < ib
		}
		return a.Less(b)
	})
	for i := range merged {
		obs := &merged[i]
		if r, ok := c.rib.Lookup(obs.Resp); ok {
			obs.ASN = r.ASN
		}
		iid := IID(obs.Resp.IID())
		hi := obs.Resp.High64()
		rec, ok := c.iids[iid]
		if !ok {
			rec = &IIDRecord{IID: iid, MinRespHi: hi, MaxRespHi: hi}
			c.iids[iid] = rec
		}
		if !rec.seenPrefix(hi) {
			rec.prefixes++
		}
		rec.Days = append(rec.Days, *obs)
		if hi < rec.MinRespHi {
			rec.MinRespHi = hi
		}
		if hi > rec.MaxRespHi {
			rec.MaxRespHi = hi
		}
	}
	s.agg = nil
	return merged
}

// seenPrefix reports whether any observation already lies in the /64
// whose upper 64 bits are hi.
func (r *IIDRecord) seenPrefix(hi uint64) bool {
	for i := range r.Days {
		if r.Days[i].Resp.High64() == hi {
			return true
		}
	}
	return false
}

// Lookup returns the record for an IID.
func (c *Corpus) Lookup(iid IID) (*IIDRecord, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.iids[iid]
	return r, ok
}

// IIDs returns all observed EUI-64 IIDs, sorted.
func (c *Corpus) IIDs() []IID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]IID, 0, len(c.iids))
	for iid := range c.iids {
		out = append(out, iid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumIIDs returns the count of distinct EUI-64 IIDs.
func (c *Corpus) NumIIDs() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.iids)
}

// Totals returns the global probe/response counters under the lock —
// the consistent pair incremental ingestion needs for delta accounting.
func (c *Corpus) Totals() (probes, responses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.TotalProbes, c.TotalResponses
}

// UniqueAddrs returns (total unique response addresses, unique EUI-64
// response addresses) — the paper's "134M unique addresses, 110M EUI-64".
func (c *Corpus) UniqueAddrs() (total, eui int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.totalAddrs) + c.loadedTotalAddrs, len(c.euiAddrs) + c.loadedEUIAddrs
}

// Days returns the scan-day indices present, sorted.
func (c *Corpus) Days() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.days))
	for d := range c.days {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// RIB exposes the table used for origin attribution.
func (c *Corpus) RIB() *bgp.Table { return c.rib }

// OriginASN maps an address to its origin AS (0 if unrouted).
func (c *Corpus) OriginASN(a ip6.Addr) uint32 {
	if r, ok := c.rib.Lookup(a); ok {
		return r.ASN
	}
	return 0
}
