package simnet

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

func testPool(t *testing.T, w *World, asn uint32, idx int) *Pool {
	t.Helper()
	p, ok := w.ProviderByASN(asn)
	if !ok {
		t.Fatalf("AS%d not found", asn)
	}
	if idx >= len(p.Pools) {
		t.Fatalf("AS%d has %d pools, want index %d", asn, len(p.Pools), idx)
	}
	return p.Pools[idx]
}

func TestBuildDeterministic(t *testing.T) {
	w1, w2 := TestWorld(7), TestWorld(7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := w1.Providers()[rng.Intn(len(w1.Providers()))]
		a := p.Allocations[0].RandomAddr(rng.Uint64(), rng.Uint64())
		r1, ok1 := w1.Query(a, 64, 0)
		r2, ok2 := w2.Query(a, 64, 0)
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("worlds diverge on %s: %+v/%v vs %+v/%v", a, r1, ok1, r2, ok2)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	w1, w2 := TestWorld(1), TestWorld(2)
	p1 := testPool(t, w1, 65001, 0)
	p2 := testPool(t, w2, 65001, 0)
	diff := 0
	for i := range p1.CPEs() {
		if i < len(p2.CPEs()) && p1.CPEs()[i].MAC != p2.CPEs()[i].MAC {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical CPE MACs")
	}
}

func TestOccupantMatchesBlockAt(t *testing.T) {
	w := TestWorld(3)
	rng := rand.New(rand.NewSource(2))
	for _, asn := range []uint32{65001, 65002, 65003} {
		p, _ := w.ProviderByASN(asn)
		for _, pool := range p.Pools {
			for trial := 0; trial < 50; trial++ {
				at := Epoch.Add(time.Duration(rng.Intn(44*24)) * time.Hour)
				ci := rng.Intn(len(pool.cpes))
				c := &pool.cpes[ci]
				if !c.activeAt(dayOf(at)) {
					continue
				}
				j := pool.blockAt(c, at)
				got := pool.occupantAt(j, at)
				if got != c {
					t.Fatalf("AS%d pool %s t=%s: occupant(blockAt(cpe %d)) = %v",
						asn, pool.Prefix, at, ci, got)
				}
			}
		}
	}
}

func TestDailyIncrementRotation(t *testing.T) {
	w := TestWorld(4)
	pool := testPool(t, w, 65001, 0) // DailyStride(3)
	c := &pool.cpes[0]

	noon := Epoch.Add(12 * time.Hour)
	j0 := pool.blockAt(c, noon)
	j1 := pool.blockAt(c, noon.Add(24*time.Hour))
	j2 := pool.blockAt(c, noon.Add(48*time.Hour))
	step := (j1 - j0) & (pool.blocks - 1)
	if step != 3 {
		t.Fatalf("daily step = %d, want stride 3", step)
	}
	if (j2-j1)&(pool.blocks-1) != 3 {
		t.Fatalf("second step = %d", (j2-j1)&(pool.blocks-1))
	}
	// Wraps modulo the pool: after blocks/3*3 days it returns near start.
	far := noon.Add(time.Duration(pool.blocks) * 24 * time.Hour) // stride 3, blocks steps later: 3*blocks mod blocks = 0
	if got := pool.blockAt(c, far); got != j0 {
		t.Fatalf("after full cycle block = %d, want %d", got, j0)
	}
}

func TestReassignmentHappensInWindow(t *testing.T) {
	w := TestWorld(5)
	pool := testPool(t, w, 65001, 0) // Daily, window 00:00-06:00
	c := &pool.cpes[1]
	day1 := Epoch.Add(24 * time.Hour)
	before := pool.blockAt(c, day1.Add(-2*time.Hour)) // 22:00 day 0
	after := pool.blockAt(c, day1.Add(7*time.Hour))   // 07:00 day 1
	if before == after {
		t.Fatal("no reassignment across the 00:00-06:00 window")
	}
	// Outside the window the assignment is stable.
	if pool.blockAt(c, day1.Add(7*time.Hour)) != pool.blockAt(c, day1.Add(23*time.Hour)) {
		t.Fatal("assignment changed outside the reassignment window")
	}
}

func TestRandomRotationPermutes(t *testing.T) {
	w := TestWorld(6)
	pool := testPool(t, w, 65001, 1) // Every(24h), /64 allocs in /48
	c := &pool.cpes[0]
	seen := map[uint64]bool{}
	for d := 0; d < 10; d++ {
		at := Epoch.Add(time.Duration(d)*24*time.Hour + 12*time.Hour)
		seen[pool.blockAt(c, at)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d distinct blocks over 10 days", len(seen))
	}
	// No collisions: at one instant every active CPE has a distinct block.
	at := Epoch.Add(36 * time.Hour)
	blocks := map[uint64]int{}
	for i := range pool.cpes {
		blocks[pool.blockAt(&pool.cpes[i], at)]++
	}
	for b, n := range blocks {
		if n > 1 {
			t.Fatalf("block %d held by %d CPE simultaneously", b, n)
		}
	}
}

func TestWANAddressModes(t *testing.T) {
	w := TestWorld(7)
	pool := testPool(t, w, 65001, 0)
	day0 := Epoch.Add(12 * time.Hour)
	day5 := Epoch.Add(5*24*time.Hour + 12*time.Hour)

	var eui, priv, privStatic *CPE
	for i := range pool.cpes {
		c := &pool.cpes[i]
		switch c.Mode {
		case ModeEUI64:
			if eui == nil {
				eui = c
			}
		case ModePrivacy:
			if priv == nil {
				priv = c
			}
		case ModePrivacyStatic:
			if privStatic == nil {
				privStatic = c
			}
		}
	}
	if eui == nil || priv == nil {
		t.Fatal("test world lacks mode coverage for EUI/privacy")
	}

	// EUI-64: IID embeds the MAC, stable across days.
	a0 := pool.wanAddr(eui, pool.blockAt(eui, day0), day0)
	a5 := pool.wanAddr(eui, pool.blockAt(eui, day5), day5)
	if a0.IID() != a5.IID() {
		t.Fatal("EUI-64 IID changed across rotation")
	}
	mac, ok := ip6.MACFromAddr(a0)
	if !ok || mac != eui.MAC {
		t.Fatalf("embedded MAC = %v/%v, want %v", mac, ok, eui.MAC)
	}
	if a0.High64() == a5.High64() {
		t.Fatal("EUI-64 CPE did not rotate prefix")
	}

	// Privacy: IID changes across epochs.
	p0 := pool.wanAddr(priv, pool.blockAt(priv, day0), day0)
	p5 := pool.wanAddr(priv, pool.blockAt(priv, day5), day5)
	if p0.IID() == p5.IID() {
		t.Fatal("privacy IID stable across rotation")
	}
}

func TestQueryRouting(t *testing.T) {
	w := TestWorld(8)
	pool := testPool(t, w, 65001, 0)
	c := &pool.cpes[0]
	now := w.Clock().Now()
	j := pool.blockAt(c, now)
	block := pool.Block(j)
	target := block.RandomAddr(0xdead, 0xbeef)
	wan := pool.wanAddr(c, j, now)
	if target == wan {
		target = block.RandomAddr(0xdead, 0xbee0)
	}

	// Full hop limit: CPE answers with its configured error.
	r, ok := w.Query(target, 64, 0)
	if !ok {
		t.Fatal("no response from occupied block")
	}
	if r.From != wan {
		t.Fatalf("response from %s, want CPE WAN %s", r.From, wan)
	}
	if r.Echo {
		t.Fatal("error probe yielded echo")
	}

	// Probing the WAN address itself: echo reply.
	r, ok = w.Query(wan, 64, 0)
	if !ok || !r.Echo || r.From != wan {
		t.Fatalf("echo to WAN = %+v, %v", r, ok)
	}

	// Hop limit 1: first core router answers time exceeded.
	p, _ := w.ProviderByASN(65001)
	r, ok = w.Query(target, 1, 0)
	if !ok || r.Type != icmp6.TypeTimeExceeded {
		t.Fatalf("hop 1 = %+v, %v", r, ok)
	}
	if r.From != p.routers[0] {
		t.Fatalf("hop 1 from %s, want router %s", r.From, p.routers[0])
	}
	if ip6.AddrIsEUI64(r.From) {
		t.Fatal("core router has an EUI-64 address")
	}

	// Hop limit routers+1: CPE answers hop-limit exceeded (yarrp mode).
	r, ok = w.Query(target, len(p.routers)+1, 0)
	if !ok || r.Type != icmp6.TypeTimeExceeded || r.From != wan {
		t.Fatalf("last-hop probe = %+v, %v", r, ok)
	}

	// Unrouted space: silence.
	if _, ok := w.Query(ip6.MustParseAddr("2a00:dead::1"), 64, 0); ok {
		t.Fatal("response from unrouted space")
	}
}

func TestQueryUnpooledSpace(t *testing.T) {
	w := TestWorld(9)
	p, _ := w.ProviderByASN(65001)
	// An address inside the allocation but outside every pool.
	target := ip6.MustParseAddr("2001:db8:ffff::1")
	gotResp, gotSilent := false, false
	for salt := uint64(0); salt < 200; salt++ {
		r, ok := w.Query(target, 64, salt)
		if ok {
			gotResp = true
			if r.Type != icmp6.TypeDestinationUnreachable || r.Code != icmp6.CodeNoRoute {
				t.Fatalf("border response = %+v", r)
			}
			if r.From != p.routers[len(p.routers)-1] {
				t.Fatalf("border response from %s", r.From)
			}
		} else {
			gotSilent = true
		}
	}
	if !gotResp || !gotSilent {
		t.Fatalf("border behaviour not probabilistic: resp=%v silent=%v", gotResp, gotSilent)
	}
}

func TestSilentAndChurn(t *testing.T) {
	w := TestWorld(10)
	pool := testPool(t, w, 65003, 0) // static pool with churn
	now := w.Clock().Now()

	var leaver *CPE
	for i := range pool.cpes {
		if pool.cpes[i].activeUntil > 0 {
			leaver = &pool.cpes[i]
			break
		}
	}
	if leaver == nil {
		t.Skip("no leaving CPE sampled")
	}
	j := pool.blockAt(leaver, now)
	target := pool.Block(j).RandomAddr(1, 2)
	if _, ok := w.Query(target, 64, 0); !ok && !leaver.Silent {
		t.Fatal("active device did not respond")
	}
	// After it leaves, its block is unoccupied (border or silence only).
	w.Clock().Set(Epoch.Add(time.Duration(leaver.activeUntil+1) * 24 * time.Hour))
	if r, ok := w.Query(target, 64, 0); ok && r.From == pool.wanAddr(leaver, j, now) {
		t.Fatal("departed device still responds")
	}
	w.Clock().Set(Epoch)
}

func TestRateLimiting(t *testing.T) {
	w := MustBuild(WorldSpec{
		Seed: 1,
		Providers: []ProviderSpec{{
			ASN: 65010, Name: "Limited", Country: "XX",
			Allocations: []string{"2001:dbb::/32"},
			Pools: []PoolSpec{{
				Prefix: "2001:dbb:10::/48", AllocBits: 56,
				Rotation:  RotationPolicy{Kind: RotateNone},
				Occupancy: 0.3, EUIFrac: 1,
				RateLimitPerHour: 5,
			}},
		}},
	})
	pool := testPool(t, w, 65010, 0)
	c := &pool.cpes[0]
	j := pool.blockAt(c, w.Clock().Now())
	answered := 0
	for i := 0; i < 20; i++ {
		target := pool.Block(j).RandomAddr(uint64(i), 77)
		if _, ok := w.Query(target, 64, uint64(i)); ok {
			answered++
		}
	}
	if answered != 5 {
		t.Fatalf("rate-limited CPE answered %d probes, want 5", answered)
	}
	// Next virtual hour the budget resets.
	w.Clock().Advance(time.Hour)
	if _, ok := w.Query(pool.Block(j).RandomAddr(99, 77), 64, 99); !ok {
		t.Fatal("budget did not reset after an hour")
	}
}

func TestLossIsSaltDependent(t *testing.T) {
	w := MustBuild(WorldSpec{
		Seed: 2,
		Providers: []ProviderSpec{{
			ASN: 65011, Name: "Lossy", Country: "XX",
			Allocations: []string{"2001:dbc::/32"},
			Pools: []PoolSpec{{
				Prefix: "2001:dbc:10::/48", AllocBits: 56,
				Rotation:  RotationPolicy{Kind: RotateNone},
				Occupancy: 0.5, EUIFrac: 1, LossProb: 0.5,
			}},
		}},
	})
	pool := testPool(t, w, 65011, 0)
	c := &pool.cpes[0]
	j := pool.blockAt(c, w.Clock().Now())
	target := pool.Block(j).RandomAddr(5, 6)
	got, lost := 0, 0
	for salt := uint64(0); salt < 100; salt++ {
		if _, ok := w.Query(target, 64, salt); ok {
			got++
		} else {
			lost++
		}
	}
	if got < 20 || lost < 20 {
		t.Fatalf("loss not ~50%%: got=%d lost=%d", got, lost)
	}
	// Same salt, same outcome (determinism).
	_, ok1 := w.Query(target, 64, 42)
	_, ok2 := w.Query(target, 64, 42)
	if ok1 != ok2 {
		t.Fatal("same salt, different outcome")
	}
}

func TestHandlePacketWire(t *testing.T) {
	w := TestWorld(11)
	pool := testPool(t, w, 65001, 0)
	var c *CPE
	for i := range pool.cpes {
		if !pool.cpes[i].Silent && pool.cpes[i].Mode == ModeEUI64 {
			c = &pool.cpes[i]
			break
		}
	}
	now := w.Clock().Now()
	j := pool.blockAt(c, now)
	wan := pool.wanAddr(c, j, now)
	target := pool.Block(j).RandomAddr(3, 4)
	if target == wan {
		target = pool.Block(j).RandomAddr(3, 5)
	}
	src := ip6.MustParseAddr("2001:db8:ffff::53") // hmm: inside AlphaNet; fine for wire test
	probe := icmp6.AppendEchoRequest(nil, src, target, 7, 9, nil)

	resp, ok := w.HandlePacket(probe, nil)
	if !ok {
		t.Fatal("no wire response")
	}
	var p icmp6.Packet
	if err := p.Unmarshal(resp); err != nil {
		t.Fatal(err)
	}
	if p.Header.Src != wan {
		t.Fatalf("wire response from %s, want %s", p.Header.Src, wan)
	}
	if p.Header.Dst != src {
		t.Fatalf("wire response to %s, want %s", p.Header.Dst, src)
	}
	quoted, ok := p.Message.InvokingPacket()
	if !ok {
		t.Fatal("no invoking packet quoted")
	}
	var q icmp6.Packet
	if err := q.Unmarshal(quoted); err != nil {
		t.Fatal(err)
	}
	if q.Header.Dst != target {
		t.Fatal("quoted packet does not carry original target")
	}

	// Garbage and non-echo packets are ignored.
	if _, ok := w.HandlePacket([]byte{1, 2, 3}, nil); ok {
		t.Fatal("garbage got a response")
	}
	reply := icmp6.AppendEchoReply(nil, src, target, 1, 1, nil)
	if _, ok := w.HandlePacket(reply, nil); ok {
		t.Fatal("echo reply got a response")
	}
}

// TestHandlePacketUDPWire covers the second probe modality: UDP
// datagrams to closed ports. A vacant address elicits the CPE's
// periphery error, a live WAN address answers Port Unreachable itself,
// and corrupted datagrams are dropped.
func TestHandlePacketUDPWire(t *testing.T) {
	w := TestWorld(11)
	pool := testPool(t, w, 65001, 0)
	var c *CPE
	for i := range pool.cpes {
		if !pool.cpes[i].Silent {
			c = &pool.cpes[i]
			break
		}
	}
	now := w.Clock().Now()
	j := pool.blockAt(c, now)
	wan := pool.wanAddr(c, j, now)
	target := pool.Block(j).RandomAddr(3, 4)
	if target == wan {
		target = pool.Block(j).RandomAddr(3, 5)
	}
	src := ip6.MustParseAddr("2620:11f:7000::53")

	// Vacant address inside the delegation: the CPE answers with its
	// configured error, quoting the UDP datagram.
	probe := icmp6.AppendUDPProbe(nil, src, target, 4321, 33434, nil)
	resp, ok := w.HandlePacket(probe, nil)
	if !ok {
		t.Fatal("no response to UDP probe")
	}
	var p icmp6.Packet
	if err := p.Unmarshal(resp); err != nil {
		t.Fatal(err)
	}
	if p.Header.Src != wan || p.Message.Type != c.RespType || p.Message.Code != c.RespCode {
		t.Fatalf("UDP probe answered %d/%d from %s, want %d/%d from %s",
			p.Message.Type, p.Message.Code, p.Header.Src, c.RespType, c.RespCode, wan)
	}
	quoted, ok := p.Message.InvokingPacket()
	if !ok {
		t.Fatal("no invoking packet quoted")
	}
	var qh icmp6.Header
	if err := qh.Unmarshal(quoted); err != nil || qh.NextHeader != icmp6.ProtoUDP || qh.Dst != target {
		t.Fatalf("quoted packet does not carry the original UDP probe (err=%v)", err)
	}

	// Live WAN address: the closed port itself answers.
	probe = icmp6.AppendUDPProbe(nil, src, wan, 4321, 33434, nil)
	resp, ok = w.HandlePacket(probe, nil)
	if !ok {
		t.Fatal("no response to UDP probe at live WAN")
	}
	if err := p.Unmarshal(resp); err != nil {
		t.Fatal(err)
	}
	if p.Header.Src != wan || p.Message.Type != icmp6.TypeDestinationUnreachable ||
		p.Message.Code != icmp6.CodePortUnreachable {
		t.Fatalf("live WAN answered %d/%d from %s, want port-unreachable from itself",
			p.Message.Type, p.Message.Code, p.Header.Src)
	}

	// A corrupted checksum is silence, as on a real network.
	bad := icmp6.AppendUDPProbe(nil, src, target, 4321, 33434, nil)
	bad[icmp6.HeaderLen] ^= 0xff
	if _, ok := w.HandlePacket(bad, nil); ok {
		t.Fatal("corrupted UDP datagram got a response")
	}
	// A truncated UDP header is silence.
	short := append([]byte(nil), probe[:icmp6.HeaderLen+4]...)
	short[4], short[5] = 0, 4 // payload length 4 < UDP header
	if _, ok := w.HandlePacket(short, nil); ok {
		t.Fatal("truncated UDP datagram got a response")
	}
}

func TestDefaultWorldBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("default world build in -short mode")
	}
	w := DefaultWorld(42)
	if got := len(w.Providers()); got < 40 {
		t.Fatalf("default world has %d providers", got)
	}
	countries := map[string]bool{}
	totalCPE := 0
	for _, p := range w.Providers() {
		countries[p.Country] = true
		for _, pool := range p.Pools {
			totalCPE += len(pool.CPEs())
		}
	}
	if len(countries) < 25 {
		t.Errorf("only %d countries", len(countries))
	}
	if totalCPE < 20000 {
		t.Errorf("only %d CPE", totalCPE)
	}

	// Pathology fixtures present.
	zero := ip6.MustParseMAC(ZeroMAC)
	if got := len(w.LocateMAC(zero)); got != 12 {
		t.Errorf("zero MAC in %d ASes, want 12", got)
	}
	reused := ip6.MustParseMAC(ReusedZTEMAC)
	if got := len(w.LocateMAC(reused)); got < 6 {
		t.Errorf("reused MAC in %d places, want >=6", got)
	}
	// Provider switchers: day 0 the ToDT device is at Wersatel only.
	sw := ip6.MustParseMAC(SwitcherToDTMAC)
	locs := w.LocateMAC(sw)
	if len(locs) != 1 {
		t.Fatalf("switcher at %d locations on day 0", len(locs))
	}
	r, _ := w.RIB().Lookup(locs[0])
	if r.ASN != ASWersatel {
		t.Errorf("switcher starts in AS%d", r.ASN)
	}
	w.Clock().Set(Epoch.Add(40 * 24 * time.Hour))
	locs = w.LocateMAC(sw)
	if len(locs) != 1 {
		t.Fatalf("switcher at %d locations on day 40", len(locs))
	}
	r, _ = w.RIB().Lookup(locs[0])
	if r.ASN != ASDTRes {
		t.Errorf("switcher is in AS%d on day 40, want DT", r.ASN)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() WorldSpec {
		return WorldSpec{Seed: 1, Providers: []ProviderSpec{{
			ASN: 65020, Name: "V", Country: "XX",
			Allocations: []string{"2001:dbd::/32"},
			Pools: []PoolSpec{{
				Prefix: "2001:dbd:10::/48", AllocBits: 56,
				Rotation: RotationPolicy{Kind: RotateNone}, Occupancy: 0.5,
			}},
		}}}
	}
	mutations := map[string]func(*WorldSpec){
		"no providers":    func(ws *WorldSpec) { ws.Providers = nil },
		"asn zero":        func(ws *WorldSpec) { ws.Providers[0].ASN = 0 },
		"no allocations":  func(ws *WorldSpec) { ws.Providers[0].Allocations = nil },
		"bad allocation":  func(ws *WorldSpec) { ws.Providers[0].Allocations = []string{"bogus"} },
		"pool outside":    func(ws *WorldSpec) { ws.Providers[0].Pools[0].Prefix = "2001:ffff:10::/48" },
		"alloc too small": func(ws *WorldSpec) { ws.Providers[0].Pools[0].AllocBits = 48 },
		"alloc too large": func(ws *WorldSpec) { ws.Providers[0].Pools[0].AllocBits = 65 },
		"occupancy range": func(ws *WorldSpec) { ws.Providers[0].Pools[0].Occupancy = 1.5 },
		"rotate no ivl":   func(ws *WorldSpec) { ws.Providers[0].Pools[0].Rotation = RotationPolicy{Kind: RotateIncrement} },
		"even stride": func(ws *WorldSpec) {
			ws.Providers[0].Pools[0].Rotation = RotationPolicy{Kind: RotateIncrement, Interval: time.Hour, Stride: 2}
		},
		"window >= ivl": func(ws *WorldSpec) {
			ws.Providers[0].Pools[0].Rotation = RotationPolicy{Kind: RotateRandom, Interval: time.Hour, ReassignWindow: time.Hour}
		},
		"bad shared mac": func(ws *WorldSpec) { ws.Providers[0].Pools[0].SharedMAC = "junk" },
		"bad extra mac":  func(ws *WorldSpec) { ws.Providers[0].Pools[0].ExtraCPE = []ExtraCPESpec{{MAC: "junk"}} },
		"transit overlap": func(ws *WorldSpec) {
			ws.Providers[0].Allocations = []string{"2001:7f8:10::/48"}
			ws.Providers[0].Pools = nil
		},
		"duplicate asn": func(ws *WorldSpec) {
			ws.Providers = append(ws.Providers, ProviderSpec{ASN: 65020, Name: "dup", Allocations: []string{"2001:dbe::/32"}})
		},
		"overlapping alloc": func(ws *WorldSpec) {
			ws.Providers = append(ws.Providers, ProviderSpec{ASN: 65021, Name: "ovl", Allocations: []string{"2001:dbd:8000::/33"}})
		},
	}
	for name, mutate := range mutations {
		ws := base()
		mutate(&ws)
		if err := ws.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", name)
		}
	}
	ws := base()
	if err := ws.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestStats pins World.Stats to what the wire server handled: every
// datagram ServeUDP read (answered, dropped or malformed) and every
// response it generated, which in this world, with no duplicating
// link, is every response it wrote. In-process probes count nothing.
func TestStats(t *testing.T) {
	w := TestWorld(12)
	pool := testPool(t, w, 65001, 0)
	w.Query(pool.Block(0).RandomAddr(1, 2), 64, 0)
	if probes, resps := w.Stats(); probes != 0 || resps != 0 {
		t.Fatalf("in-process probe counted: stats = %d/%d", probes, resps)
	}

	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeUDP(ctx, conn, 0) }()
	client, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// N echo probes over the pool (some answered, some not), one
	// malformed datagram, and last a Neighbor Solicitation for a live
	// WAN address: NDP is never lost, so its advertisement marks the
	// moment the server has read every earlier datagram.
	const n = 32
	src := ip6.MustParseAddr("2a01::53")
	var dgrams [][]byte
	for i := 0; i < n; i++ {
		target := pool.Block(uint64(i)%pool.Blocks()).RandomAddr(uint64(i), 7)
		dgrams = append(dgrams, icmp6.AppendEchoRequest(nil, src, target, 1, uint16(i), nil))
	}
	dgrams = append(dgrams, []byte{0x60, 0, 0})
	c := &pool.cpes[0]
	now := w.Clock().Now()
	wan := pool.wanAddr(c, pool.blockAt(c, now), now)
	dgrams = append(dgrams, icmp6.AppendNeighborSolicitation(nil, ip6.MustParseAddr("fe80::53"), wan))
	for _, p := range dgrams {
		if _, err := client.Write(p); err != nil {
			t.Fatal(err)
		}
	}

	written := 0
	buf := make([]byte, 2048)
	_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := client.Read(buf)
		if err != nil {
			t.Fatalf("after %d responses: %v", written, err)
		}
		written++
		var p icmp6.Packet
		if p.Unmarshal(buf[:m]) == nil && p.Message.Type == icmp6.TypeNeighborAdvertisement {
			break
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	probes, resps := w.Stats()
	if probes != uint64(len(dgrams)) || resps != uint64(written) {
		t.Fatalf("stats = %d/%d, want %d datagrams read / %d responses written", probes, resps, len(dgrams), written)
	}
	if echoes := written - 1; echoes == 0 || echoes > n {
		t.Fatalf("%d responses to %d echo probes", echoes, n)
	}
}

func BenchmarkQuery(b *testing.B) {
	w := TestWorld(13)
	pool := testPool(&testing.T{}, w, 65001, 0)
	targets := make([]ip6.Addr, 4096)
	rng := rand.New(rand.NewSource(9))
	for i := range targets {
		j := uint64(rng.Intn(int(pool.Blocks())))
		targets[i] = pool.Block(j).RandomAddr(rng.Uint64(), rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Query(targets[i%len(targets)], 64, uint64(i))
	}
}

func BenchmarkHandlePacket(b *testing.B) {
	w := TestWorld(14)
	pool := testPool(&testing.T{}, w, 65001, 0)
	src := ip6.MustParseAddr("2a01::53")
	probe := icmp6.AppendEchoRequest(nil, src, pool.Block(3).RandomAddr(1, 2), 1, 1, nil)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = w.HandlePacket(probe, buf[:0])
	}
}
