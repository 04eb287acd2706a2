package core_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"followscent/internal/core"
	"followscent/internal/ip6"
)

// rotationScript is a generated pair of §4.3 passes: 0-3 scanned /48s,
// 1-4 workers, and per worker the responses it handled in delivery
// order. Targets and responders come from small sets, so workers
// collide on targets and responses often repeat across passes.
type rotationScript struct {
	High         []ip6.Prefix
	Pass1, Pass2 [][]core.RotationResponse
}

// Generate implements quick.Generator.
func (rotationScript) Generate(r *rand.Rand, size int) reflect.Value {
	base := ip6.MustParsePrefix("2001:db8::/32")
	n := r.Intn(4)
	idx := r.Perm(1 << 16)[:n]
	slices.Sort(idx)
	s := rotationScript{High: make([]ip6.Prefix, n)}
	for i, k := range idx {
		s.High[i] = base.Subprefix(uint64(k), 48)
	}
	workers := 1 + r.Intn(4)
	// The edge /64s of a /48 and a few in between.
	offsets := []uint64{0, 1, 2, 0x100, 0xffff}
	pass := func() [][]core.RotationResponse {
		shards := make([][]core.RotationResponse, workers)
		if n == 0 {
			return shards
		}
		for m := r.Intn(16); m > 0; m-- {
			p64 := s.High[r.Intn(n)].Subprefix(offsets[r.Intn(len(offsets))], 64)
			// A full /64 scan probes one fixed IID per /64.
			target := p64.Addr().WithIID(0x5ca1ab1e ^ p64.Addr().High64())
			var iid uint64
			if r.Intn(2) == 0 {
				iid = ip6.EUI64FromMAC(ip6.MAC{0x38, 0x10, 0xd5, 0, 0, byte(r.Intn(3))})
			} else {
				iid = uint64(1 + r.Intn(2))
			}
			w := r.Intn(workers)
			shards[w] = append(shards[w], core.RotationResponse{Target: target, From: p64.Addr().WithIID(iid)})
		}
		return shards
	}
	s.Pass1, s.Pass2 = pass(), pass()
	return reflect.ValueOf(s)
}

// merged is a pass's target → response map, later workers winning.
func (s rotationScript) merged(pass [][]core.RotationResponse) map[ip6.Addr]ip6.Addr {
	m := map[ip6.Addr]ip6.Addr{}
	for _, rs := range pass {
		for _, r := range rs {
			m[r.Target] = r.From
		}
	}
	return m
}

// TestRotationDiffMatchesMapMerge checks the position-indexed §4.3 diff
// against the per-worker map merge-and-diff on random shards, and that
// the scripts covered the cases where the two could part: a target
// answered by several workers in one pass, a target answered in one
// pass only, a change between non-EUI responders only, no /48 at all,
// and several /48s.
func TestRotationDiffMatchesMapMerge(t *testing.T) {
	var dupAcross, oneSided, nonEUIChange, none, multi, rotating, still int
	f := func(s rotationScript) bool {
		got := core.RotatingByArrays(s.High, s.Pass1, s.Pass2)
		want := core.RotatingByMaps(s.Pass1, s.Pass2)
		if !slices.Equal(got, want) {
			t.Logf("high %v\npass1 %v\npass2 %v\narrays %v, maps %v", s.High, s.Pass1, s.Pass2, got, want)
			return false
		}
		switch {
		case len(s.High) == 0:
			none++
		case len(s.High) > 1:
			multi++
		}
		if len(got) > 0 {
			rotating++
		} else if len(s.High) > 0 {
			still++
		}
		for _, pass := range [][][]core.RotationResponse{s.Pass1, s.Pass2} {
			seen := map[ip6.Addr]int{}
			for w, rs := range pass {
				for _, r := range rs {
					if v, ok := seen[r.Target]; ok && v != w {
						dupAcross++
					}
					seen[r.Target] = w
				}
			}
		}
		m1, m2 := s.merged(s.Pass1), s.merged(s.Pass2)
		for tgt, a := range m1 {
			b, ok := m2[tgt]
			switch {
			case !ok:
				oneSided++
			case a != b && !ip6.AddrIsEUI64(a) && !ip6.AddrIsEUI64(b):
				nonEUIChange++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{
		"duplicate targets across workers": dupAcross,
		"one-sided responses":              oneSided,
		"non-EUI-only changes":             nonEUIChange,
		"zero /48s":                        none,
		"several /48s":                     multi,
		"rotating results":                 rotating,
		"non-rotating results":             still,
	} {
		if n == 0 {
			t.Errorf("no script covered %s", name)
		}
	}
}
