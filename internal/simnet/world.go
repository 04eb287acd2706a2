package simnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/oui"
)

// World is a built, probe-answerable simulated IPv6 Internet.
// All methods are safe for concurrent use.
type World struct {
	seed  uint64
	clock *Clock

	providers []*Provider
	// ranges is sorted by allocation base address for O(log n) routing.
	ranges []allocRange
	rib    *bgp.Table

	// rate holds the ICMPv6 rate-limit counters, striped so concurrent
	// scan workers hitting different devices never contend on one lock.
	rate [rateStripes]rateStripe

	// Wire-server counters, bumped once per ServeUDP recvmmsg stride;
	// the per-probe paths count nothing.
	statProbes atomic.Uint64
	statResps  atomic.Uint64

	// hBorder/hLoss are the constant prefixes of the border-response and
	// loss mix chains (mix folds words left to right, so a fixed word
	// prefix has a fixed intermediate state), precomputed at build time
	// to shave two mixer rounds off every probe that reaches them.
	hBorder uint64
	hLoss   uint64
	// hLink seeds the per-datagram duplication/reordering fate of
	// LinkFate (the wire-serving link effects).
	hLink uint64
}

// rateStripes is the number of independent rate-limit lock stripes; a
// power of two so stripe selection is a mask.
const rateStripes = 64

// rateStripe is one shard of the rate-limit table. Each stripe tracks
// the virtual hour independently: counters reset lazily when a probe
// arrives in a newer hour.
type rateStripe struct {
	mu    sync.Mutex
	hour  int64
	count map[rateKey]int
}

type allocRange struct {
	prefix   ip6.Prefix
	provider *Provider
}

type rateKey struct {
	pool *Pool
	cpe  int32
}

// probeModality classifies an off-link probe for the per-provider
// filtering policy (ProviderSpec.Filter). The on-link answer paths
// (NDP, MLD) never consult it: a link cannot ACL away its own
// neighbor resolution or multicast listening.
type probeModality uint8

const (
	modalityEcho probeModality = iota
	modalityUDP
	modalityTCP
)

// filterMaskOf compiles a ProviderSpec.Filter list (validated) into a
// per-modality bitmask.
func filterMaskOf(filter []string) uint8 {
	var mask uint8
	for _, m := range filter {
		switch m {
		case "echo":
			mask |= 1 << modalityEcho
		case "udp":
			mask |= 1 << modalityUDP
		case "tcp":
			mask |= 1 << modalityTCP
		}
	}
	return mask
}

// Provider is a built AS.
type Provider struct {
	ASN     uint32
	Name    string
	Country string

	Allocations []ip6.Prefix
	Pools       []*Pool

	routerHops     int
	borderRespProb float64
	// filterMask has bit m set when probeModality m is dropped by the
	// provider's edge ACL (past the core routers, before the border).
	filterMask uint8
	routers    []ip6.Addr // static transit/core router addresses
	world      *World
}

// Pool is a built rotation pool.
type Pool struct {
	Provider *Provider
	Prefix   ip6.Prefix
	// AllocBits is the true customer allocation size (ground truth for
	// Algorithm 1's inference).
	AllocBits int
	Rotation  RotationPolicy

	blocks    uint64 // number of allocation blocks in the pool
	blockBits uint   // log2(blocks)
	spanLimit uint64 // blocks actually used for delegation (<= blocks)
	key       uint64 // derived deterministic seed

	cpes   []CPE
	byBase map[uint64]int32

	lossProb    float64
	reorderProb float64
	dupProb     float64
	rateLimit   int

	// occ caches the pool's occupancy over one validity window (see
	// occCache). Scans freeze the clock, so a whole scan pass hits one
	// snapshot and per-probe occupant lookup is a single map read; under
	// -timescale serving the clock moves every tick, and the window
	// bound keeps ticks that change nothing from rebuilding anything.
	occ atomic.Pointer[occCache]
	// occBuilds counts snapshot rebuilds (amortization regression tests
	// and capacity planning).
	occBuilds atomic.Uint64
}

// occCache is a snapshot of a pool's block occupancy over one validity
// window of virtual time: which CPE (by index) holds each block, and
// that occupant's WAN address. It replaces the per-probe
// inverse-permutation walk of the rotation policy with an O(1) lookup;
// the snapshot is rebuilt the first time the pool is probed at an
// instant outside [at, until) — the window ends at the earliest
// reassignment or churn day boundary, so -timescale clock ticks that
// change nothing cost O(1) per pool instead of an O(devices) rebuild.
type occCache struct {
	at    int64 // virtual offset from Epoch (ns) the snapshot was built at
	until int64 // exclusive end of the validity window (ns from Epoch)
	// dense is the block -> occupying CPE index table for pools small
	// enough to afford one (-1 = empty); occ is the map fallback for
	// pools with more than denseOccLimit blocks.
	dense []int32
	occ   map[uint64]int32
	wan   []ip6.Addr // CPE index -> WAN address at 'at' (zero when not placed)
}

// denseOccLimit bounds the dense table at 4 MiB per pool snapshot.
const denseOccLimit = 1 << 20

// occupant returns the CPE index holding block j, if any.
func (c *occCache) occupant(j uint64) (int32, bool) {
	if c.dense != nil {
		idx := c.dense[j]
		return idx, idx >= 0
	}
	idx, ok := c.occ[j]
	return idx, ok
}

// CPE is one customer-premises router.
type CPE struct {
	MAC    ip6.MAC
	Mode   AddressingMode
	Vendor string

	// RespType/RespCode is the ICMPv6 error this device originates for
	// probes to unreachable destinations inside its delegation.
	RespType, RespCode uint8
	Silent             bool

	// base is the home block index; the rotation policy maps it to the
	// current block.
	base uint64
	// activeFrom/activeUntil bound the device's lifetime in days since
	// Epoch; activeUntil < 0 means forever.
	activeFrom  int32
	activeUntil int32

	privSeed uint64
}

// Build constructs a World from a spec. The spec is validated first.
func Build(ws WorldSpec) (*World, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		seed:    ws.Seed,
		clock:   NewClock(),
		rib:     bgp.New(),
		hBorder: mix(ws.Seed, 0xb0de),
		hLoss:   mix(ws.Seed, 0x1055),
		hLink:   mix(ws.Seed, 0x117e),
	}
	reg := oui.Builtin()
	macs := newMACAllocator(ws.Seed)
	for pi := range ws.Providers {
		ps := &ws.Providers[pi]
		p := &Provider{
			ASN:            ps.ASN,
			Name:           ps.Name,
			Country:        ps.Country,
			routerHops:     ps.RouterHops,
			borderRespProb: ps.BorderRespProb,
			filterMask:     filterMaskOf(ps.Filter),
			world:          w,
		}
		if p.routerHops == 0 {
			p.routerHops = 3
		}
		for _, s := range ps.Allocations {
			pfx := ip6.MustParsePrefix(s) // validated above
			p.Allocations = append(p.Allocations, pfx)
			w.ranges = append(w.ranges, allocRange{pfx, p})
			w.rib.Insert(bgp.Route{Prefix: pfx, ASN: p.ASN, Country: p.Country})
		}
		// Core/border routers answer from transit space, deterministically
		// derived from the ASN: statically addressed, never EUI-64.
		for h := 0; h < p.routerHops; h++ {
			sub := TransitPrefix.Subprefix(uint64(p.ASN)&0xffff, 48)
			r := sub.Subprefix(uint64(h), 64).Addr().WithIID(uint64(h) + 1)
			p.routers = append(p.routers, r)
		}
		for qi := range ps.Pools {
			pool, err := buildPool(w, p, &ps.Pools[qi], pi, qi, ps.RateLimitPerHour, reg, macs)
			if err != nil {
				return nil, err
			}
			p.Pools = append(p.Pools, pool)
		}
		// Sort pools by base address for lookup.
		sort.Slice(p.Pools, func(i, j int) bool {
			return p.Pools[i].Prefix.Addr().Less(p.Pools[j].Prefix.Addr())
		})
		w.providers = append(w.providers, p)
	}
	sort.Slice(w.ranges, func(i, j int) bool {
		return w.ranges[i].prefix.Addr().Less(w.ranges[j].prefix.Addr())
	})
	return w, nil
}

// MustBuild is Build that panics on error, for tests and fixed specs.
func MustBuild(ws WorldSpec) *World {
	w, err := Build(ws)
	if err != nil {
		panic(err)
	}
	return w
}

func buildPool(w *World, p *Provider, spec *PoolSpec, pi, qi, defaultRateLimit int, reg *oui.Registry, macs *macAllocator) (*Pool, error) {
	pfx := ip6.MustParsePrefix(spec.Prefix)
	blockBits := uint(spec.AllocBits - pfx.Bits())
	if blockBits > 32 {
		return nil, fmt.Errorf("simnet: AS%d pool %s: %d block bits is too many to simulate", p.ASN, pfx, blockBits)
	}
	// Rate-limit inheritance: 0 takes the provider default, -1 opts the
	// pool out of a provider-wide limit.
	rateLimit := spec.RateLimitPerHour
	if rateLimit == 0 {
		rateLimit = defaultRateLimit
	}
	if rateLimit < 0 {
		rateLimit = 0
	}
	pool := &Pool{
		Provider:    p,
		Prefix:      pfx,
		AllocBits:   spec.AllocBits,
		Rotation:    spec.Rotation,
		blocks:      uint64(1) << blockBits,
		blockBits:   blockBits,
		key:         mix(w.seed, uint64(p.ASN), uint64(pi)<<16|uint64(qi)),
		byBase:      make(map[uint64]int32),
		lossProb:    spec.LossProb,
		reorderProb: spec.ReorderProb,
		dupProb:     spec.DupProb,
		rateLimit:   rateLimit,
	}
	pool.spanLimit = pool.blocks
	if spec.ClusterSpan > 0 && spec.ClusterSpan < 1 {
		// Random rotation must stay inside the delegated span, as a real
		// DHCPv6-PD range would (Figure 3c's unallocated top quarter must
		// stay empty across rotations).
		pool.spanLimit = uint64(float64(pool.blocks) * spec.ClusterSpan)
		if pool.spanLimit == 0 {
			pool.spanLimit = 1
		}
	}
	n := uint64(float64(pool.blocks) * spec.Occupancy)
	if n > pool.blocks {
		n = pool.blocks
	}
	if n > 1<<22 {
		return nil, fmt.Errorf("simnet: AS%d pool %s: %d CPE exceeds simulation budget", p.ASN, pfx, n)
	}

	// Home-block placement: contiguous clusters, a restricted scatter
	// span, or a full uniform scatter via a keyed bijection.
	scatter := newPerm(mix(pool.key, 0xb10c), blockBits)
	baseFor, err := homePlacer(spec, pool, scatter, n)
	if err != nil {
		return nil, err
	}

	vendors := spec.Vendors
	if len(vendors) == 0 {
		vendors = defaultVendorMix
	}
	var totalW float64
	for _, v := range vendors {
		totalW += v.Weight
	}

	var sharedMAC ip6.MAC
	if spec.SharedMAC != "" {
		sharedMAC = ip6.MustParseMAC(spec.SharedMAC)
	}

	pool.cpes = make([]CPE, 0, n)
	for i := uint64(0); i < n; i++ {
		base := baseFor(i)
		h := mix(pool.key, 0xcafe, i)

		// Devices exist long before the campaign starts unless churn says
		// otherwise; the year-old seed campaign must be able to see them.
		c := CPE{base: base, activeFrom: math.MinInt32, activeUntil: -1}

		// Addressing mode. EUI-64 and DHCPv6 split one uniform draw, so
		// the EUI population at eui_frac e is a subset of the one at any
		// e' > e — the nesting TestPrivacyExtensionDegradation relies on —
		// and a dhcpv6_frac of zero leaves historical worlds bit-identical.
		u := unitFloat(mix(h, 1))
		switch {
		case u < spec.EUIFrac:
			c.Mode = ModeEUI64
		case u < spec.EUIFrac+spec.DHCPv6Frac:
			c.Mode = ModeDHCPv6
		case unitFloat(mix(h, 2)) < spec.StaticPrivFrac:
			c.Mode = ModePrivacyStatic
		default:
			c.Mode = ModePrivacy
		}
		c.privSeed = mix(h, 3)

		// Vendor and MAC.
		c.Vendor = pickVendor(vendors, totalW, unitFloat(mix(h, 4)))
		if spec.SharedMAC != "" && c.Mode == ModeEUI64 {
			c.MAC = sharedMAC
		} else {
			c.MAC = macs.next(reg, c.Vendor, mix(h, 5))
		}

		// Response behaviour: mix of unreachable codes observed in §3.1.
		switch mix(h, 6) % 10 {
		case 0, 1, 2, 3:
			c.RespType, c.RespCode = icmp6.TypeDestinationUnreachable, icmp6.CodeAdminProhibited
		case 4, 5, 6:
			c.RespType, c.RespCode = icmp6.TypeDestinationUnreachable, icmp6.CodeNoRoute
		case 7, 8:
			c.RespType, c.RespCode = icmp6.TypeDestinationUnreachable, icmp6.CodeAddrUnreachable
		default:
			c.RespType, c.RespCode = icmp6.TypeTimeExceeded, icmp6.CodeHopLimitExceeded
		}
		c.Silent = unitFloat(mix(h, 7)) < spec.SilentFrac

		// Churn: appear or disappear mid-campaign.
		if unitFloat(mix(h, 8)) < spec.ChurnFrac {
			day := int32(1 + mix(h, 9)%40)
			if mix(h, 10)&1 == 0 {
				c.activeFrom = day
			} else {
				c.activeUntil = day
			}
		}

		pool.byBase[base] = int32(len(pool.cpes))
		pool.cpes = append(pool.cpes, c)
	}

	// Pathology fixtures and pinned tracking targets. On clustered or
	// span-restricted pools they take the topmost blocks (free by
	// construction); on scattered pools they continue the bijection.
	for k, e := range spec.ExtraCPE {
		if n+uint64(k) >= pool.blocks {
			return nil, fmt.Errorf("simnet: AS%d pool %s: no room for extra CPE %d", p.ASN, pfx, k)
		}
		var base uint64
		if len(spec.ClusterWeights) > 0 || spec.ClusterSpan > 0 {
			base = pool.blocks - 1 - uint64(k)
		} else {
			base = scatter.apply(n + uint64(k))
		}
		if _, taken := pool.byBase[base]; taken {
			return nil, fmt.Errorf("simnet: AS%d pool %s: extra CPE %d collides at block %d", p.ASN, pfx, k, base)
		}
		c := CPE{
			base:        base,
			activeFrom:  math.MinInt32,
			activeUntil: -1,
			Mode:        e.Mode,
			MAC:         ip6.MustParseMAC(e.MAC),
			RespType:    icmp6.TypeDestinationUnreachable,
			RespCode:    icmp6.CodeAdminProhibited,
			Silent:      e.Silent,
			privSeed:    mix(pool.key, 0xec9e, uint64(k)),
		}
		if v, ok := reg.Lookup(c.MAC); ok {
			c.Vendor = v
		}
		if e.FromDay != 0 {
			c.activeFrom = int32(e.FromDay)
		}
		if e.UntilDay != 0 {
			c.activeUntil = int32(e.UntilDay)
		}
		pool.byBase[base] = int32(len(pool.cpes))
		pool.cpes = append(pool.cpes, c)
	}
	return pool, nil
}

// homePlacer returns the device-index -> home-block mapping for a pool.
func homePlacer(spec *PoolSpec, pool *Pool, scatter perm, n uint64) (func(uint64) uint64, error) {
	switch {
	case len(spec.ClusterWeights) > 0:
		k := uint64(len(spec.ClusterWeights))
		segment := pool.blocks / k
		if segment == 0 {
			return nil, fmt.Errorf("simnet: pool %s: %d clusters exceed %d blocks", pool.Prefix, k, pool.blocks)
		}
		var total float64
		for _, w := range spec.ClusterWeights {
			total += w
		}
		if total == 0 {
			return nil, fmt.Errorf("simnet: pool %s: zero total cluster weight", pool.Prefix)
		}
		// Cluster c holds sizes[c] devices starting at c*segment.
		sizes := make([]uint64, k)
		var assigned uint64
		for c := range sizes {
			sizes[c] = uint64(spec.ClusterWeights[c] / total * float64(n))
			if sizes[c] > segment {
				return nil, fmt.Errorf("simnet: pool %s: cluster %d (%d devices) overflows its segment (%d blocks)",
					pool.Prefix, c, sizes[c], segment)
			}
			assigned += sizes[c]
		}
		// Distribute rounding leftovers to the first clusters with room.
		for c := 0; assigned < n && c < int(k); c++ {
			for assigned < n && sizes[c] < segment {
				sizes[c]++
				assigned++
			}
		}
		if assigned < n {
			return nil, fmt.Errorf("simnet: pool %s: %d devices do not fit the clusters", pool.Prefix, n)
		}
		// Prefix-sum lookup.
		starts := make([]uint64, k+1)
		for c := uint64(0); c < k; c++ {
			starts[c+1] = starts[c] + sizes[c]
		}
		return func(i uint64) uint64 {
			// Find the cluster containing the i-th device.
			c := uint64(0)
			for starts[c+1] <= i {
				c++
			}
			return c*segment + (i - starts[c])
		}, nil

	case spec.ClusterSpan > 0 && spec.ClusterSpan < 1:
		limit := uint64(float64(pool.blocks) * spec.ClusterSpan)
		if n > limit {
			return nil, fmt.Errorf("simnet: pool %s: %d devices exceed span of %d blocks", pool.Prefix, n, limit)
		}
		// Cycle-walk the bijection, keeping only bases under the limit:
		// still collision-free and deterministic.
		bases := make([]uint64, 0, n)
		for j := uint64(0); j < pool.blocks && uint64(len(bases)) < n; j++ {
			if b := scatter.apply(j); b < limit {
				bases = append(bases, b)
			}
		}
		if uint64(len(bases)) < n {
			return nil, fmt.Errorf("simnet: pool %s: span scatter underflow", pool.Prefix)
		}
		return func(i uint64) uint64 { return bases[i] }, nil

	default:
		return func(i uint64) uint64 { return scatter.apply(i) }, nil
	}
}

var defaultVendorMix = []VendorShare{
	{oui.VendorAVM, 3},
	{oui.VendorZTE, 3},
	{oui.VendorHuawei, 2},
	{oui.VendorSagemcom, 2},
	{oui.VendorTechnicolor, 1},
	{oui.VendorZyxel, 1},
	{oui.VendorTPLink, 1},
	{oui.VendorArris, 1},
}

func pickVendor(vendors []VendorShare, totalW, u float64) string {
	x := u * totalW
	for _, v := range vendors {
		if x < v.Weight {
			return v.Vendor
		}
		x -= v.Weight
	}
	return vendors[len(vendors)-1].Vendor
}

// macAllocator hands out world-unique MACs: real manufacturers never
// collide within an OUI (barring the deliberate §5.5 reuse fixtures), so
// accidental collisions must not pollute the multi-AS analyses. Each OUI
// gets a seed-scrambled sequential suffix.
type macAllocator struct {
	next3 map[ip6.OUI]uint32
	mixer perm // scrambles the 24-bit suffix space so MACs look natural
}

func newMACAllocator(seed uint64) *macAllocator {
	return &macAllocator{
		next3: make(map[ip6.OUI]uint32),
		mixer: newPerm(mix(seed, 0x3ac5), 24),
	}
}

// next draws the vendor's next MAC. Unknown vendors get a
// locally-administered OUI derived from the hash.
func (m *macAllocator) next(reg *oui.Registry, vendor string, h uint64) ip6.MAC {
	ouis := reg.OUIs(vendor)
	if len(ouis) == 0 {
		return ip6.MAC{0x06, byte(h >> 32), byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
	}
	o := ouis[h%uint64(len(ouis))]
	suffix := uint32(m.mixer.apply(uint64(m.next3[o])))
	m.next3[o]++
	return ip6.MAC{o[0], o[1], o[2], byte(suffix >> 16), byte(suffix >> 8), byte(suffix)}
}

// Accessors -----------------------------------------------------------------

// Clock returns the world's virtual clock.
func (w *World) Clock() *Clock { return w.clock }

// Seed returns the world seed.
func (w *World) Seed() uint64 { return w.seed }

// RIB returns the BGP table holding every provider advertisement.
func (w *World) RIB() *bgp.Table { return w.rib }

// Providers returns the built providers (shared slice; do not modify).
func (w *World) Providers() []*Provider { return w.providers }

// ProviderByASN returns the provider originating the given AS number.
func (w *World) ProviderByASN(asn uint32) (*Provider, bool) {
	for _, p := range w.providers {
		if p.ASN == asn {
			return p, true
		}
	}
	return nil, false
}

// Stats returns what the wire server (ServeUDP) handled: datagrams
// received and responses generated. Probes answered in process
// (HandlePacket, Query, the zmap loopback) are not counted here; a
// scan's own zmap.Stats already reports them.
func (w *World) Stats() (probes, responses uint64) {
	return w.statProbes.Load(), w.statResps.Load()
}

// CPEs returns the pool's devices (shared slice; do not modify).
func (p *Pool) CPEs() []CPE { return p.cpes }

// Blocks returns the number of customer allocation blocks in the pool.
func (p *Pool) Blocks() uint64 { return p.blocks }

// providerFor routes an address to its provider.
func (w *World) providerFor(a ip6.Addr) *Provider {
	// Binary search for the last range whose base <= a.
	i := sort.Search(len(w.ranges), func(i int) bool {
		return a.Less(w.ranges[i].prefix.Addr())
	})
	for j := i - 1; j >= 0; j-- {
		if w.ranges[j].prefix.Contains(a) {
			return w.ranges[j].provider
		}
		// Ranges are non-overlapping and sorted; one step back suffices
		// unless bases are equal, so a short scan is enough.
		if j < i-2 {
			break
		}
	}
	return nil
}

// poolFor returns the pool containing a, or nil.
func (p *Provider) poolFor(a ip6.Addr) *Pool {
	for _, pool := range p.Pools {
		if pool.Prefix.Contains(a) {
			return pool
		}
	}
	return nil
}

// Rotation mechanics --------------------------------------------------------

// reassignShift is the per-CPE offset of its reassignment instant within
// each interval: the pool's base hour plus deterministic jitter.
func (p *Pool) reassignShift(c *CPE) time.Duration {
	shift := time.Duration(p.Rotation.ReassignHour) * time.Hour
	if p.Rotation.ReassignWindow > 0 {
		jitter := mix(p.key, 0x317, c.base) % uint64(p.Rotation.ReassignWindow)
		shift += time.Duration(jitter)
	}
	return shift
}

// epochOf returns how many complete rotation intervals this CPE has been
// through at time t (0 before its first reassignment).
func (p *Pool) epochOf(c *CPE, t time.Time) int64 {
	if p.Rotation.Kind == RotateNone {
		return 0
	}
	elapsed := t.Sub(Epoch) - p.reassignShift(c)
	if elapsed < 0 {
		// Before the first reassignment after Epoch: epoch counts may go
		// negative for t before Epoch; floor division handles it.
		return -int64((-elapsed-1)/p.Rotation.Interval) - 1
	}
	return int64(elapsed / p.Rotation.Interval)
}

// blockAt returns the block index c occupies at time t.
func (p *Pool) blockAt(c *CPE, t time.Time) uint64 {
	switch p.Rotation.Kind {
	case RotateIncrement:
		n := p.epochOf(c, t)
		return (c.base + uint64(n)*p.stride()) & (p.blocks - 1) // blocks is a power of two
	case RotateRandom:
		n := p.epochOf(c, t)
		pm := newPerm(mix(p.key, 0xe60c, uint64(n)), p.blockBits)
		// Cycle-walk to stay within the delegated span: repeatedly apply
		// the permutation until the image lands inside. This is a
		// bijection on [0, spanLimit) because the walk follows a single
		// permutation cycle.
		x := pm.apply(c.base)
		for x >= p.spanLimit {
			x = pm.apply(x)
		}
		return x
	default:
		return c.base
	}
}

// occupantAt returns the CPE occupying block j at time t, or nil.
// During a reassignment window two devices can transiently claim the same
// block (one has rotated, one has not); the rotated one wins, mirroring a
// DHCPv6 server that reassigns a released prefix immediately.
func (p *Pool) occupantAt(j uint64, t time.Time) *CPE {
	cache := p.cacheAt(int64(t.Sub(Epoch)))
	idx, ok := cache.occupant(j)
	if !ok {
		return nil
	}
	return &p.cpes[idx]
}

// cacheAt returns the occupancy snapshot covering the virtual instant
// at (an offset from Epoch in nanoseconds), rebuilding it only when at
// falls outside the stored snapshot's validity window. Concurrent
// rebuilds are benign: every builder computes the same snapshot for the
// same instant, and a stale pointer stored by a racing older build
// fails the window check and is rebuilt on the next probe.
func (p *Pool) cacheAt(at int64) *occCache {
	if c := p.occ.Load(); c != nil && at >= c.at && at < c.until {
		return c
	}
	c := p.buildCache(at)
	p.occ.Store(c)
	return c
}

// buildCache computes the full occupancy of the pool at one instant by
// walking every CPE forward through its rotation policy — O(devices)
// once per occupancy change, instead of O(permutation walk) per probe.
func (p *Pool) buildCache(at int64) *occCache {
	p.occBuilds.Add(1)
	t := Epoch.Add(time.Duration(at))
	day := dayOf(t)
	c := &occCache{
		at:    at,
		until: p.nextChange(t, at),
		wan:   make([]ip6.Addr, len(p.cpes)),
	}
	if p.blocks <= denseOccLimit {
		c.dense = make([]int32, p.blocks)
		for j := range c.dense {
			c.dense[j] = -1
		}
	} else {
		c.occ = make(map[uint64]int32, len(p.cpes))
	}
	set := func(j uint64, i int32) {
		if c.dense != nil {
			c.dense[j] = i
		} else {
			c.occ[j] = i
		}
	}
	for i := range p.cpes {
		cpe := &p.cpes[i]
		if !cpe.activeAt(day) {
			continue
		}
		j := p.blockAt(cpe, t)
		if prev, taken := c.occupant(j); taken {
			// Transient double-claim during a reassignment window: the
			// device that has already rotated (the higher epoch) wins,
			// mirroring a DHCPv6 server that reassigns a released prefix
			// immediately. Equal epochs cannot collide: each epoch's
			// placement is a bijection.
			if p.epochOf(cpe, t) <= p.epochOf(&p.cpes[prev], t) {
				continue
			}
		}
		set(j, int32(i))
		c.wan[i] = p.wanAddr(cpe, j, t)
	}
	return c
}

// nextChange returns the earliest virtual instant after at (exclusive
// bound, ns from Epoch) at which the pool's occupancy or any occupant's
// WAN address may differ from the snapshot at t: the next rotation
// reassignment of any device, or — when any device churns — the next
// day boundary. Non-rotating pools without churn never change, so a
// -timescale server rebuilds their snapshots exactly once.
func (p *Pool) nextChange(t time.Time, at int64) int64 {
	next := int64(math.MaxInt64)
	churn := false
	rotates := p.Rotation.Kind != RotateNone
	for i := range p.cpes {
		c := &p.cpes[i]
		if c.activeFrom != math.MinInt32 || c.activeUntil >= 0 {
			churn = true
		}
		if !rotates {
			if churn {
				break // nothing else can tighten the bound
			}
			continue
		}
		// The device's next reassignment instant. epochOf floors, so for
		// any t' before this boundary the epoch — and with it the block
		// and a privacy-mode IID — is unchanged.
		b := int64(p.reassignShift(c)) + (p.epochOf(c, t)+1)*int64(p.Rotation.Interval)
		if b < next {
			next = b
		}
	}
	if churn {
		if d := (int64(dayOf(t)) + 1) * int64(24*time.Hour); d < next {
			next = d
		}
	}
	if next <= at {
		// Defensive: a boundary computation landing at or before the
		// snapshot instant degrades to the old rebuild-per-instant
		// behaviour rather than serving a stale window.
		next = at + 1
	}
	return next
}

func dayOf(t time.Time) int32 {
	d := t.Sub(Epoch) / (24 * time.Hour)
	if t.Before(Epoch) {
		d--
	}
	return int32(d)
}

func (c *CPE) activeAt(day int32) bool {
	return day >= c.activeFrom && (c.activeUntil < 0 || day < c.activeUntil)
}

// stride returns the effective increment stride (default 1).
func (p *Pool) stride() uint64 {
	if p.Rotation.Stride == 0 {
		return 1
	}
	return p.Rotation.Stride
}

// Block returns the pool's j-th allocation block as a prefix.
func (p *Pool) Block(j uint64) ip6.Prefix {
	return p.Prefix.Subprefix(j, p.AllocBits)
}

// blockIndex returns which allocation block contains a.
func (p *Pool) blockIndex(a ip6.Addr) uint64 {
	return p.Prefix.SubprefixIndex(a, p.AllocBits)
}

// wanAddr is the CPE's provider-facing address at time t, given its
// current block: the first /64 of the delegation plus the device IID.
func (p *Pool) wanAddr(c *CPE, j uint64, t time.Time) ip6.Addr {
	w64 := p.Block(j).Subprefix(0, 64)
	var iid uint64
	switch c.Mode {
	case ModeEUI64:
		iid = ip6.EUI64FromMAC(c.MAC)
	case ModePrivacyStatic:
		iid = c.privSeed
	case ModeDHCPv6:
		// A fresh lease out of a small dense server pool at every
		// re-delegation: low IIDs as real DHCPv6 servers assign, and
		// nothing stable to follow across rotations.
		iid = 1 + mix(c.privSeed, uint64(p.epochOf(c, t)))&0xffff
	default: // ModePrivacy: fresh IID every epoch
		iid = mix(c.privSeed, uint64(p.epochOf(c, t)))
	}
	return w64.Addr().WithIID(iid)
}

// WANAddrNow returns c's current WAN address (ground truth for tests and
// tracker validation).
func (p *Pool) WANAddrNow(c *CPE) ip6.Addr {
	t := p.Provider.world.clock.Now()
	return p.wanAddr(c, p.blockAt(c, t), t)
}

// LocateMAC returns the current WAN addresses of every active CPE in the
// world embedding the given MAC (several, for the reuse pathologies).
func (w *World) LocateMAC(m ip6.MAC) []ip6.Addr {
	t := w.clock.Now()
	day := dayOf(t)
	var out []ip6.Addr
	for _, p := range w.providers {
		for _, pool := range p.Pools {
			for i := range pool.cpes {
				c := &pool.cpes[i]
				if c.MAC == m && c.activeAt(day) {
					out = append(out, pool.wanAddr(c, pool.blockAt(c, t), t))
				}
			}
		}
	}
	return out
}

// Probe answering -----------------------------------------------------------

// Response is the structured result of one probe.
type Response struct {
	From ip6.Addr // source address of the ICMPv6 message
	Type uint8
	Code uint8
	// Hops is how many hops the probe traversed before the response was
	// generated (used to derive simulated RTTs).
	Hops int
	// Echo reports whether the response is an Echo Reply rather than an
	// error.
	Echo bool
}

// Query answers a single ICMPv6 echo probe sent to target with the
// given hop limit. salt distinguishes retransmissions so that loss is
// not perfectly correlated across retries. ok=false means the probe was
// dropped (no route, filtering, silent device, loss, or rate limiting).
func (w *World) Query(target ip6.Addr, hopLimit int, salt uint64) (Response, bool) {
	var r Response
	ok := w.query(&r, modalityEcho, target, hopLimit, salt)
	return r, ok
}

// query answers into r (an out-parameter so the hot path moves one
// Response instead of two) and reports whether a response exists.
func (w *World) query(r *Response, m probeModality, target ip6.Addr, hopLimit int, salt uint64) bool {
	if hopLimit <= 0 {
		return false
	}
	p := w.providerFor(target)
	if p == nil {
		return false // unrouted space: silence
	}
	at := w.clock.sinceEpoch()

	// Core routers: hop-limited probes expire in transit.
	if hopLimit <= len(p.routers) {
		// Routers respond with high, deterministic probability.
		if unitFloat(mix(w.seed, target.High64(), uint64(hopLimit), salt)) < 0.05 {
			return false
		}
		*r = Response{
			From: p.routers[hopLimit-1],
			Type: icmp6.TypeTimeExceeded,
			Code: icmp6.CodeHopLimitExceeded,
			Hops: hopLimit,
		}
		return true
	}

	// Edge ACL: a filtered modality is dropped past the core routers,
	// before anything at or behind the border can answer — including the
	// border's own no-route errors.
	if p.filterMask&(1<<m) != 0 {
		return false
	}

	pool := p.poolFor(target)
	borderNoRoute := func() bool {
		// Continues the precomputed mix(seed, 0xb0de, ...) chain.
		if unitFloat(splitmix64(splitmix64(w.hBorder^target.High64())^salt)) >= p.borderRespProb {
			return false
		}
		*r = Response{
			From: p.routers[len(p.routers)-1],
			Type: icmp6.TypeDestinationUnreachable,
			Code: icmp6.CodeNoRoute,
			Hops: len(p.routers),
		}
		return true
	}
	if pool == nil {
		return borderNoRoute()
	}
	j := pool.blockIndex(target)
	cache := pool.cacheAt(at)
	idx, occupied := cache.occupant(j)
	if !occupied {
		return borderNoRoute()
	}
	c := &pool.cpes[idx]
	if c.Silent {
		return false
	}
	// Per-probe loss: continues the precomputed mix(seed, 0x1055, ...)
	// chain.
	if pool.lossProb > 0 &&
		unitFloat(splitmix64(splitmix64(splitmix64(w.hLoss^target.Uint128().Hi)^target.Uint128().Lo)^salt)) < pool.lossProb {
		return false
	}
	// ICMPv6 error rate limiting per device per virtual hour.
	if pool.rateLimit > 0 && !w.allowRate(pool, idx, at) {
		return false
	}

	wan := cache.wan[idx]
	hops := len(p.routers) + 1
	if target == wan {
		*r = Response{From: wan, Hops: hops, Type: icmp6.TypeEchoReply, Echo: true}
		return true
	}
	if hopLimit == len(p.routers)+1 {
		// The probe reaches the CPE with hop limit expiring as it would
		// forward into the LAN: yarrp-style last-hop discovery.
		*r = Response{
			From: wan,
			Type: icmp6.TypeTimeExceeded,
			Code: icmp6.CodeHopLimitExceeded,
			Hops: hops,
		}
		return true
	}
	*r = Response{From: wan, Type: c.RespType, Code: c.RespCode, Hops: hops}
	return true
}

// LinkFate decides the duplication and reordering fate of one response
// datagram about to leave the simulated network, from the pool of the
// response's source address (dup_prob / reorder_prob). It is applied
// only on the wire path (ServeUDP): the in-process transport is a
// perfect link, so loopback scans stay the deterministic ground truth
// and the link effects exercise exactly the real-socket machinery.
// Responses from transit space (core and border routers) are never
// duplicated or reordered. The fate is a pure function of the world
// seed and the datagram bytes, so equal worlds serve equal links.
func (w *World) LinkFate(resp []byte) (dup, reorder bool) {
	var h icmp6.Header
	if h.Unmarshal(resp) != nil {
		return false, false
	}
	p := w.providerFor(h.Src)
	if p == nil {
		return false, false
	}
	pool := p.poolFor(h.Src)
	if pool == nil || (pool.dupProb == 0 && pool.reorderProb == 0) {
		return false, false
	}
	fate := splitmix64(w.hLink ^ contentHash(resp))
	dup = unitFloat(splitmix64(fate^0xd0b)) < pool.dupProb
	reorder = unitFloat(splitmix64(fate^0x0af)) < pool.reorderProb
	return dup, reorder
}

// contentHash folds a datagram into one word for LinkFate: cheap, and
// dependent on every byte so retransmitted (salted) responses are
// independent trials.
func contentHash(b []byte) uint64 {
	var h uint64 = uint64(len(b))
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = splitmix64(h ^ w)
		b = b[8:]
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return splitmix64(h ^ tail)
}

// allowRate implements the per-CPE hourly token count. The table is
// striped by (pool, device) so concurrent scan workers rate-limiting
// different devices take different locks.
func (w *World) allowRate(pool *Pool, cpeIdx int32, at int64) bool {
	hour := at / int64(time.Hour)
	s := &w.rate[(pool.key^splitmix64(uint64(cpeIdx)))&(rateStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == nil || hour != s.hour {
		s.hour = hour
		s.count = make(map[rateKey]int)
	}
	k := rateKey{pool, cpeIdx}
	if s.count[k] >= pool.rateLimit {
		return false
	}
	s.count[k]++
	return true
}
