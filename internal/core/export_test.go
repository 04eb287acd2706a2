package core

import (
	"io"

	"followscent/internal/ip6"
)

// SaveDay writes day's journal segment by walking every record of the
// corpus: the whole-corpus form that the serving path replaced with
// WriteDaySegment over ScanDay.Commit's result. The journal tests keep
// it as an oracle that does not depend on Commit's ordering.
func (c *Corpus) SaveDay(w io.Writer, day int, meta DaySegmentMeta) error {
	c.mu.RLock()
	var obs []DayObs
	for _, iid := range c.sortedIIDsLocked() {
		for _, d := range c.iids[iid].Days {
			if d.Day == day {
				obs = append(obs, d)
			}
		}
	}
	c.mu.RUnlock()
	return WriteDaySegment(w, day, meta, obs)
}

// RotationResponse is one ⟨target, response⟩ pair a §4.3 scan worker
// handled.
type RotationResponse struct{ Target, From ip6.Addr }

// RotatingByArrays records each pass's per-worker responses, in
// delivery order, into a position-indexed pass and diffs the two, as
// detectRotation does. high must be sorted /48s and every target must
// lie in one of them.
func RotatingByArrays(high []ip6.Prefix, pass1, pass2 [][]RotationResponse) []ip6.Prefix {
	bases := rotationBases(high)
	fill := func(shards [][]RotationResponse) *rotationPass {
		p := newRotationPass(bases, len(shards))
		for w, rs := range shards {
			for _, r := range rs {
				p.record(w, r.Target, r.From)
			}
		}
		return p
	}
	return rotating48s(high, fill(pass1), fill(pass2))
}

// RotatingByMaps is §4.3's diff over per-worker maps: each pass's
// shards merged in worker order (a later shard overwrites an earlier
// one), then every target of either pass compared. It is the reference
// the position-indexed diff must match.
func RotatingByMaps(pass1, pass2 [][]RotationResponse) []ip6.Prefix {
	merge := func(shards [][]RotationResponse) map[ip6.Addr]ip6.Addr {
		maps := make([]map[ip6.Addr]ip6.Addr, len(shards))
		for w, rs := range shards {
			maps[w] = map[ip6.Addr]ip6.Addr{}
			for _, r := range rs {
				maps[w][r.Target] = r.From
			}
		}
		pairs := map[ip6.Addr]ip6.Addr{}
		for _, m := range maps {
			for t, from := range m {
				pairs[t] = from
			}
		}
		return pairs
	}
	s1, s2 := merge(pass1), merge(pass2)
	changed := map[ip6.Prefix]struct{}{}
	mark := func(target ip6.Addr, a, b ip6.Addr, okA, okB bool) {
		euiA := okA && ip6.AddrIsEUI64(a)
		euiB := okB && ip6.AddrIsEUI64(b)
		if !euiA && !euiB {
			return
		}
		if okA && okB && a == b {
			return
		}
		changed[target.TruncateTo(48)] = struct{}{}
	}
	for t, a := range s1 {
		b, ok := s2[t]
		mark(t, a, b, true, ok)
	}
	for t, b := range s2 {
		if _, ok := s1[t]; !ok {
			mark(t, ip6.Addr{}, b, false, true)
		}
	}
	var out []ip6.Prefix
	for p48 := range changed {
		out = append(out, p48)
	}
	sortPrefixes(out)
	return out
}
