package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Pipeline is the §4 discovery machine: it turns a stale seed list of
// EUI-producing /48s into the set of /48 networks currently employing
// prefix rotation, in three stages:
//
//  1. Seed expansion and validation (§4.1): widen each seed /48 to its
//     covering /32 and probe one random address per constituent /48.
//  2. Candidate density inference (§4.2): one probe per /56 per
//     validated /48; classify low/high EUI density.
//  3. Rotation detection (§4.3): two identical full /64-granularity
//     scans 24 hours apart; /48s whose ⟨target, response⟩ pairs changed
//     are rotating.
type Pipeline struct {
	Scanner *zmap.Scanner
	RIB     *bgp.Table
	// Wait advances time between the two §4.3 snapshots. Against the
	// simulator this advances the virtual clock; against a real network
	// it would sleep.
	Wait func(d time.Duration)
	// DensityThreshold is the §4.2 cut (default 0.01: "the number of
	// unique EUI-64 responses was 2 or fewer" at /56 granularity).
	DensityThreshold float64
	// Salt fixes the probe ordering and target IIDs.
	Salt uint64
	// ProbesPer48 is how many random targets stage 1 sends into each
	// /48 of each seed /32. The paper sends exactly one (938 x 65536 x 1
	// probes, §4.1); against a scaled-down world with few /48s per AS,
	// a handful of probes per /48 compensates for the lost statistical
	// coverage. Default 1.
	ProbesPer48 int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// DiscoveryResult carries the pipeline's intermediate and final outputs.
type DiscoveryResult struct {
	Seed32s      []ip6.Prefix // deduplicated covering /32s
	Validated48s []ip6.Prefix // §4.1 output
	HighDensity  []ip6.Prefix // §4.2 output: the host-discovery set
	LowDensity   []ip6.Prefix
	NoResponse   []ip6.Prefix
	Rotating48s  []ip6.Prefix // §4.3 output

	// Address discovery totals across all three stages (§4's "19.4M
	// total addresses, 14.8M EUI-64, 6.2M unique IIDs").
	TotalAddrs int
	EUIAddrs   int
	UniqueIIDs int
	ProbesSent uint64
}

// Run executes all three stages.
func (p *Pipeline) Run(ctx context.Context, seeds []ip6.Prefix) (*DiscoveryResult, error) {
	if p.DensityThreshold == 0 {
		p.DensityThreshold = 0.01
	}
	if p.Wait == nil {
		return nil, fmt.Errorf("core: pipeline needs a Wait hook")
	}
	res := &DiscoveryResult{}
	track := newAddrTracker(p.Scanner.Config.NumWorkers())

	if err := p.expandSeeds(ctx, seeds, res, track); err != nil {
		return nil, fmt.Errorf("core: seed expansion: %w", err)
	}
	p.logf("stage 1: %d /32s -> %d validated /48s", len(res.Seed32s), len(res.Validated48s))

	if err := p.classifyDensity(ctx, res, track); err != nil {
		return nil, fmt.Errorf("core: density inference: %w", err)
	}
	p.logf("stage 2: %d high, %d low, %d unresponsive", len(res.HighDensity), len(res.LowDensity), len(res.NoResponse))

	if err := p.detectRotation(ctx, res, track); err != nil {
		return nil, fmt.Errorf("core: rotation detection: %w", err)
	}
	p.logf("stage 3: %d rotating /48s", len(res.Rotating48s))

	res.TotalAddrs, res.EUIAddrs, res.UniqueIIDs = track.totals()
	return res, nil
}

// addrTracker accumulates the §4 address-discovery totals. It is
// sharded by scan worker: each worker writes its own shard lock-free
// (handler calls within one worker are serialized), and totals() merges
// the shards.
type addrTracker struct {
	shards []addrShard
}

type addrShard struct {
	total map[ip6.Addr]struct{}
	eui   map[ip6.Addr]struct{}
	iids  map[uint64]struct{}
}

func newAddrTracker(workers int) *addrTracker {
	t := &addrTracker{shards: make([]addrShard, workers)}
	for i := range t.shards {
		t.shards[i] = addrShard{
			total: make(map[ip6.Addr]struct{}),
			eui:   make(map[ip6.Addr]struct{}),
			iids:  make(map[uint64]struct{}),
		}
	}
	return t
}

func (t *addrTracker) see(worker int, from ip6.Addr) {
	s := &t.shards[worker]
	s.total[from] = struct{}{}
	if ip6.AddrIsEUI64(from) {
		s.eui[from] = struct{}{}
		s.iids[from.IID()] = struct{}{}
	}
}

func (t *addrTracker) totals() (total, eui, iids int) {
	if len(t.shards) == 1 {
		s := &t.shards[0]
		return len(s.total), len(s.eui), len(s.iids)
	}
	allTotal := make(map[ip6.Addr]struct{})
	allEUI := make(map[ip6.Addr]struct{})
	allIIDs := make(map[uint64]struct{})
	for i := range t.shards {
		s := &t.shards[i]
		for a := range s.total {
			allTotal[a] = struct{}{}
		}
		for a := range s.eui {
			allEUI[a] = struct{}{}
		}
		for id := range s.iids {
			allIIDs[id] = struct{}{}
		}
	}
	return len(allTotal), len(allEUI), len(allIIDs)
}

// scan runs one worker-parallel scan pass with handler calls delivered
// concurrently: each stage below shards its accumulators by
// Result.Worker, so no lock is taken per response.
func (p *Pipeline) scan(ctx context.Context, ts zmap.TargetSet, salt uint64, h zmap.Handler) (zmap.Stats, error) {
	sc := *p.Scanner
	sc.Config.ConcurrentHandlers = true
	return sc.Scan(ctx, ts, salt, h)
}

// expandSeeds is §4.1.
func (p *Pipeline) expandSeeds(ctx context.Context, seeds []ip6.Prefix, res *DiscoveryResult, track *addrTracker) error {
	// Widen each seed /48 to its covering routed prefix, capped at /32
	// (the paper probes /32s; anything shorter would be unprobeable).
	seen := map[ip6.Prefix]struct{}{}
	for _, s := range seeds {
		cover := ip6.PrefixFrom(s.Addr(), 32)
		if r, ok := p.RIB.Lookup(s.Addr()); ok && r.Prefix.Bits() >= 32 {
			cover = r.Prefix
		}
		if _, dup := seen[cover]; !dup {
			seen[cover] = struct{}{}
			res.Seed32s = append(res.Seed32s, cover)
		}
	}
	sortPrefixes(res.Seed32s)

	per := p.ProbesPer48
	if per == 0 {
		per = 1
	}
	ts, err := zmap.NewSubnetTargetsN(res.Seed32s, 48, p.Salt, per)
	if err != nil {
		return err
	}
	// A /48 is validated when it produced an EUI-64 response that no
	// other /48 produced (a *unique* responsive EUI last hop, §4).
	// Accumulation is per worker, merged after the scan.
	type s1acc struct {
		per48 map[ip6.Prefix][]ip6.Addr
		owner map[ip6.Addr]int // EUI addr -> responses it accounted for
	}
	accs := make([]s1acc, len(track.shards))
	for w := range accs {
		accs[w] = s1acc{per48: map[ip6.Prefix][]ip6.Addr{}, owner: map[ip6.Addr]int{}}
	}
	stats, err := p.scan(ctx, ts, p.Salt^0xa1, func(r zmap.Result) {
		track.see(r.Worker, r.From)
		if !ip6.AddrIsEUI64(r.From) {
			return
		}
		a := &accs[r.Worker]
		p48 := r.Target.TruncateTo(48)
		a.per48[p48] = append(a.per48[p48], r.From)
		a.owner[r.From]++
	})
	if err != nil {
		return err
	}
	res.ProbesSent += stats.Sent
	per48 := accs[0].per48
	owner := accs[0].owner
	for _, a := range accs[1:] {
		for p48, addrs := range a.per48 {
			per48[p48] = append(per48[p48], addrs...)
		}
		for addr, n := range a.owner {
			owner[addr] += n
		}
	}
	for p48, addrs := range per48 {
		for _, a := range addrs {
			if owner[a] == 1 {
				res.Validated48s = append(res.Validated48s, p48)
				break
			}
		}
	}
	sortPrefixes(res.Validated48s)
	return nil
}

// classifyDensity is §4.2.
func (p *Pipeline) classifyDensity(ctx context.Context, res *DiscoveryResult, track *addrTracker) error {
	if len(res.Validated48s) == 0 {
		return fmt.Errorf("no validated /48s to classify")
	}
	ts, err := zmap.NewSubnetTargets(res.Validated48s, 56, p.Salt^0xd2)
	if err != nil {
		return err
	}
	uniqs := make([]map[ip6.Prefix]map[ip6.Addr]struct{}, len(track.shards))
	for w := range uniqs {
		uniqs[w] = map[ip6.Prefix]map[ip6.Addr]struct{}{}
	}
	stats, err := p.scan(ctx, ts, p.Salt^0xd2, func(r zmap.Result) {
		track.see(r.Worker, r.From)
		if !ip6.AddrIsEUI64(r.From) {
			return
		}
		uniq := uniqs[r.Worker]
		p48 := r.Target.TruncateTo(48)
		set, ok := uniq[p48]
		if !ok {
			set = make(map[ip6.Addr]struct{})
			uniq[p48] = set
		}
		set[r.From] = struct{}{}
	})
	if err != nil {
		return err
	}
	res.ProbesSent += stats.Sent
	uniq := uniqs[0]
	for _, u := range uniqs[1:] {
		for p48, set := range u {
			dst, ok := uniq[p48]
			if !ok {
				uniq[p48] = set
				continue
			}
			for a := range set {
				dst[a] = struct{}{}
			}
		}
	}
	const probesPer48 = 256 // one per /56
	for _, p48 := range res.Validated48s {
		n := len(uniq[p48])
		density := float64(n) / probesPer48
		switch {
		case n == 0:
			res.NoResponse = append(res.NoResponse, p48)
		case density < p.DensityThreshold:
			res.LowDensity = append(res.LowDensity, p48)
		default:
			res.HighDensity = append(res.HighDensity, p48)
		}
	}
	return nil
}

// detectRotation is §4.3: two identical scans 24 hours apart; diff the
// responsive ⟨target, response⟩ pairs.
func (p *Pipeline) detectRotation(ctx context.Context, res *DiscoveryResult, track *addrTracker) error {
	if len(res.HighDensity) == 0 {
		return fmt.Errorf("no high-density /48s for rotation detection")
	}
	ts, err := zmap.NewSubnetTargets(res.HighDensity, 64, p.Salt^0xc3)
	if err != nil {
		return err
	}
	bases := rotationBases(res.HighDensity)
	snapshot := func() (*rotationPass, error) {
		pass := newRotationPass(bases, len(track.shards))
		// Identical salt both passes: identical probe order and target
		// IIDs, the paper's "same zmap random seed".
		stats, err := p.scan(ctx, ts, p.Salt^0xc3, func(r zmap.Result) {
			track.see(r.Worker, r.From)
			pass.record(r.Worker, r.Target, r.From)
		})
		res.ProbesSent += stats.Sent
		return pass, err
	}
	s1, err := snapshot()
	if err != nil {
		return err
	}
	p.Wait(24 * time.Hour)
	s2, err := snapshot()
	if err != nil {
		return err
	}
	res.Rotating48s = rotating48s(res.HighDensity, s1, s2)
	return nil
}

// rotationBases keys each scanned /48 by its upper 48 bits. high is
// sorted (classifyDensity walks the sorted Validated48s), so the keys
// ascend and a target's /48 is found by binary search.
func rotationBases(high []ip6.Prefix) []uint64 {
	bases := make([]uint64, len(high))
	for i, p48 := range high {
		bases[i] = p48.Addr().High64() >> 16
	}
	return bases
}

// rotationPass is one §4.3 scan's ⟨target, response⟩ pairs, indexed by
// target position: the index of the target's /48 in the scanned list,
// shifted left 16, OR'd with the target's /64 within that /48. A full
// /64 scan sends exactly one target per position. Each scan worker
// writes only its own array, and one worker's handler calls are
// serialized, so recording takes no lock and a pass needs no merge.
// The zero Addr means no response. A pass holds 16 B × positions ×
// workers.
type rotationPass struct {
	bases  []uint64     // from rotationBases
	shards [][]ip6.Addr // [worker][position]
}

func newRotationPass(bases []uint64, workers int) *rotationPass {
	p := &rotationPass{bases: bases, shards: make([][]ip6.Addr, workers)}
	for w := range p.shards {
		p.shards[w] = make([]ip6.Addr, len(bases)<<16)
	}
	return p
}

// record stores from as worker's response to target. A target outside
// the scanned /48s can only be a forged response that passed the 16-bit
// validation field; it has no position and is dropped.
func (p *rotationPass) record(worker int, target, from ip6.Addr) {
	hi := target.High64()
	i, ok := slices.BinarySearch(p.bases, hi>>16)
	if !ok {
		return
	}
	p.shards[worker][i<<16|int(hi&0xffff)] = from
}

// at is the pass's response at pos: the non-zero entry of the highest
// worker, the precedence a merge in worker order (a later shard
// overwrites an earlier one) gives.
func (p *rotationPass) at(pos int) ip6.Addr {
	for w := len(p.shards) - 1; w >= 0; w-- {
		if a := p.shards[w][pos]; !a.IsZero() {
			return a
		}
	}
	return ip6.Addr{}
}

// rotating48s diffs two passes over the same /48s. A /48 rotates when
// some position's responses differ and either one is EUI-64: pairs
// common to both scans, and changes among non-EUI responders only, say
// nothing about rotation. The result keeps high's (sorted) order.
func rotating48s(high []ip6.Prefix, s1, s2 *rotationPass) []ip6.Prefix {
	var out []ip6.Prefix
	for i, p48 := range high {
		for pos := i << 16; pos < (i+1)<<16; pos++ {
			a, b := s1.at(pos), s2.at(pos)
			if a != b && (ip6.AddrIsEUI64(a) || ip6.AddrIsEUI64(b)) {
				out = append(out, p48)
				break
			}
		}
	}
	return out
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Key   string // ASN as decimal string, or country code
	Count int
}

// Table1 aggregates rotating /48s by origin ASN and country, returning
// the top-k of each plus "Other" rows, exactly as the paper's Table 1.
func Table1(rib *bgp.Table, rotating []ip6.Prefix, k int) (byASN, byCC []Table1Row) {
	asn := map[string]int{}
	cc := map[string]int{}
	for _, p48 := range rotating {
		if r, ok := rib.Lookup(p48.Addr()); ok {
			asn[fmt.Sprintf("%d", r.ASN)]++
			cc[r.Country]++
		} else {
			asn["unrouted"]++
			cc["??"]++
		}
	}
	top := func(m map[string]int) []Table1Row {
		rows := make([]Table1Row, 0, len(m))
		for key, n := range m {
			rows = append(rows, Table1Row{key, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Count != rows[j].Count {
				return rows[i].Count > rows[j].Count
			}
			return rows[i].Key < rows[j].Key
		})
		if len(rows) <= k {
			return rows
		}
		other := Table1Row{Key: fmt.Sprintf("%d Other", len(rows)-k)}
		for _, r := range rows[k:] {
			other.Count += r.Count
		}
		return append(rows[:k:k], other)
	}
	return top(asn), top(cc)
}

func sortPrefixes(ps []ip6.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Cmp(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
