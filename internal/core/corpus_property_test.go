package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/uint128"
)

// obsScript is a generated sequence of observations for property tests.
type obsScript struct {
	// Each entry: (day, responder index, prefix index) — built over a
	// small universe so aggregation paths actually collide.
	Steps []obsStep
}

type obsStep struct {
	Day    uint8
	Device uint8
	Prefix uint8
}

// Generate implements quick.Generator.
func (obsScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 1
	s := obsScript{Steps: make([]obsStep, n)}
	for i := range s.Steps {
		s.Steps[i] = obsStep{
			Day:    uint8(r.Intn(6)),
			Device: uint8(r.Intn(8)),
			Prefix: uint8(r.Intn(10)),
		}
	}
	return reflect.ValueOf(s)
}

// TestCorpusInvariants replays random observation scripts and checks the
// structural invariants every analysis relies on.
func TestCorpusInvariants(t *testing.T) {
	base := ip6.MustParsePrefix("2001:db8::/32")
	macs := make([]ip6.MAC, 8)
	for i := range macs {
		macs[i] = ip6.MAC{0x38, 0x10, 0xd5, 0, 0, byte(i + 1)}
	}
	f := func(script obsScript) bool {
		rib := bgp.New()
		rib.Insert(bgp.Route{Prefix: base, ASN: 65000, Country: "XX"})
		corpus := core.NewCorpus(rib)

		// Replay grouped by day (the campaign contract: one ScanDay per
		// day, committed in order).
		byDay := map[int][]obsStep{}
		for _, st := range script.Steps {
			byDay[int(st.Day)] = append(byDay[int(st.Day)], st)
		}
		truthPrefixes := map[core.IID]map[uint64]struct{}{}
		for day := 0; day < 6; day++ {
			steps := byDay[day]
			if len(steps) == 0 {
				continue
			}
			sd := corpus.NewScanDay(day)
			for _, st := range steps {
				iid := ip6.EUI64FromMAC(macs[st.Device])
				p64 := base.Subprefix(uint64(st.Prefix), 64)
				resp := p64.Addr().WithIID(iid)
				target := p64.RandomAddr(uint64(st.Device), uint64(st.Prefix))
				sd.Record(target, resp)
				k := core.IID(iid)
				if truthPrefixes[k] == nil {
					truthPrefixes[k] = map[uint64]struct{}{}
				}
				truthPrefixes[k][resp.High64()] = struct{}{}
			}
			sd.Commit()
		}

		for _, iid := range corpus.IIDs() {
			rec, ok := corpus.Lookup(iid)
			if !ok {
				return false
			}
			// Span invariant: min <= max and both inside the universe.
			if rec.MinRespHi > rec.MaxRespHi {
				return false
			}
			// Prefix count matches the independently tracked truth.
			if rec.PrefixCount() != len(truthPrefixes[iid]) {
				return false
			}
			// Chronology: days non-decreasing.
			for i := 1; i < len(rec.Days); i++ {
				if rec.Days[i].Day < rec.Days[i-1].Day {
					return false
				}
			}
			// Per-day target spans are well-formed.
			for _, d := range rec.Days {
				if d.MinTargetHi > d.MaxTargetHi || d.Count < 1 {
					return false
				}
			}
			// Pool inference never exceeds /64 or the observed span.
			span := uint128.From64(rec.MaxRespHi - rec.MinRespHi).Log2Ceil()
			_ = span
		}
		// Every recorded IID is attributable to the single test AS.
		for _, s := range corpus.PoolSamples() {
			if s.ASN != 65000 {
				return false
			}
			if s.Bits < 0 || s.Bits > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// inferScript is a generated multi-AS, multi-vendor campaign for the
// snapshot-versus-batch property. Days are committed in the order they
// first appear, not ascending, and a day may be committed in two parts,
// so one record's observations of a day need not be adjacent.
type inferScript struct {
	Steps []inferStep
	Split []bool // per day: commit it as two ScanDays
}

type inferStep struct {
	Day, AS, OUI, Device, Prefix, Spread uint8
}

// Generate implements quick.Generator.
func (inferScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := inferScript{Steps: make([]inferStep, r.Intn(300)+1), Split: make([]bool, 5)}
	for i := range s.Steps {
		s.Steps[i] = inferStep{
			Day:    uint8(r.Intn(5)),
			AS:     uint8(r.Intn(2)),
			OUI:    uint8(r.Intn(3)),
			Device: uint8(r.Intn(6)),
			Prefix: uint8(r.Intn(4)),
			Spread: uint8(r.Intn(256)),
		}
	}
	for i := range s.Split {
		s.Split[i] = r.Intn(2) == 0
	}
	return reflect.ValueOf(s)
}

// batchCensus is VendorCensus computed over the sorted IIDs().
func batchCensus(c *core.Corpus, pool ip6.Prefix) []core.OUICount {
	counts := map[ip6.OUI]int{}
	for _, iid := range c.IIDs() {
		mac, ok := ip6.MACFromEUI64(uint64(iid))
		if !ok {
			continue
		}
		rec, _ := c.Lookup(iid)
		if !pool.IsZero() && !slices.ContainsFunc(rec.Days, func(d core.DayObs) bool { return pool.Contains(d.Resp) }) {
			continue
		}
		counts[mac.OUI()]++
	}
	out := []core.OUICount{}
	for o, n := range counts {
		out = append(out, core.OUICount{OUI: o, Devices: n})
	}
	slices.SortFunc(out, func(a, b core.OUICount) int {
		if a.Devices != b.Devices {
			return b.Devices - a.Devices
		}
		return bytes.Compare(a.OUI[:], b.OUI[:])
	})
	return out
}

// TestSnapshotAnswersEqualBatch: a snapshot's census and per-AS
// Algorithm 1/2 medians equal the batch calls over the corpus it froze —
// AllocationSizeByAS over every captured day's AllocationSamples,
// PoolSizeByAS(PoolSamples()) and the census over the sorted IIDs().
func TestSnapshotAnswersEqualBatch(t *testing.T) {
	bases := []ip6.Prefix{ip6.MustParsePrefix("2001:db8::/32"), ip6.MustParsePrefix("2001:db9::/32")}
	ouis := []ip6.OUI{{0x38, 0x10, 0xd5}, {0x00, 0x1a, 0x2b}, {0xcc, 0xce, 0x1e}}
	pools := []ip6.Prefix{{}, bases[0], bases[1], ip6.MustParsePrefix("2001:db8::/56"), ip6.MustParsePrefix("2001:dba::/32")}
	var multiAS, allocs int
	f := func(s inferScript) bool {
		rib := bgp.New()
		rib.Insert(bgp.Route{Prefix: bases[0], ASN: 65001, Country: "XX"})
		rib.Insert(bgp.Route{Prefix: bases[1], ASN: 65002, Country: "YY"})
		c := core.NewCorpus(rib)
		var order []int
		byDay := map[int][]inferStep{}
		for _, st := range s.Steps {
			d := int(st.Day)
			if byDay[d] == nil {
				order = append(order, d)
			}
			byDay[d] = append(byDay[d], st)
		}
		for _, d := range order {
			steps := byDay[d]
			parts := [][]inferStep{steps}
			if s.Split[d] && len(steps) > 1 {
				parts = [][]inferStep{steps[:len(steps)/2], steps[len(steps)/2:]}
			}
			for _, part := range parts {
				sd := c.NewScanDay(d)
				for _, st := range part {
					base := bases[st.AS]
					iid := ip6.EUI64FromMAC(ip6.MACFromOUI(ouis[st.OUI], uint32(st.Device)))
					resp := base.Subprefix(uint64(st.Prefix)<<8, 64).Addr().WithIID(iid)
					target := base.Subprefix(uint64(st.Prefix)<<8|uint64(st.Spread), 64).Addr().WithIID(7)
					sd.Record(target, resp)
				}
				sd.AddProbes(uint64(len(part)))
				sd.Commit()
			}
		}
		snap := c.Snapshot()
		frozen := snap.Corpus()
		var alloc []core.AllocationSample
		for _, d := range snap.Days() {
			alloc = append(alloc, frozen.AllocationSamples(d)...)
		}
		allocs += len(alloc)
		if got, want := snap.AllocationByAS(), core.AllocationSizeByAS(alloc); !reflect.DeepEqual(got, want) {
			t.Logf("AllocationByAS %v, batch %v", got, want)
			return false
		}
		if got, want := snap.PoolByAS(), core.PoolSizeByAS(frozen.PoolSamples()); !reflect.DeepEqual(got, want) {
			t.Logf("PoolByAS %v, batch %v", got, want)
			return false
		}
		for _, pool := range pools {
			got, want := snap.VendorCensus(pool), batchCensus(frozen, pool)
			if !slices.Equal(got, want) {
				t.Logf("VendorCensus(%v) %v, batch %v", pool, got, want)
				return false
			}
		}
		for _, iid := range frozen.IIDs() {
			if rec, _ := frozen.Lookup(iid); len(rec.ASNs()) > 1 {
				multiAS++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
	if multiAS == 0 || allocs == 0 {
		t.Errorf("scripts produced %d multi-AS devices and %d allocation samples; the comparison would be vacuous", multiAS, allocs)
	}
}
