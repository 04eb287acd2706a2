// Package yarrp implements a yarrp-style randomized traceroute prober:
// the baseline the paper compares its zmap-based method against (§3.1).
//
// yarrp (Beverly 2016) probes the (target × TTL) space in a random order,
// reconstructing full forwarding paths without per-flow state. That is
// ideal for topology mapping but wasteful for periphery discovery: it
// spends MaxTTL probes per target and elicits Hop Limit Exceeded errors
// from every intermediate router, where the paper's method needs exactly
// one full-hop-limit probe per customer prefix and hears only from the
// CPE. The benchmark harness quantifies that gap (Figure 2's ablation).
//
// The prober itself is a thin zmap.ProbeModule: HopLimitModule plugs the
// (target × TTL) sweep into the shared scan engine, inheriting its
// multi-worker parallelism, sharding, pacing and the loopback Exchanger
// fast path. This package adds only the TTL encoding and the path
// reconstruction helpers.
package yarrp

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Hop is one discovered (target, ttl) observation.
type Hop struct {
	Target ip6.Addr
	TTL    int
	From   ip6.Addr
	Type   uint8
	Code   uint8
}

// Config tunes a trace sweep.
type Config struct {
	// Source is the vantage address.
	Source ip6.Addr
	// MaxTTL bounds the hop-limit sweep (default 16).
	MaxTTL int
	// Seed randomizes probe order and validation.
	Seed uint64
	// Workers is the number of concurrent sender/receiver pairs, with
	// zmap engine semantics: Trace keeps its historical single-worker
	// contract at 0, TraceWorkers resolves 0 to GOMAXPROCS. The swept
	// (target, ttl) set is identical for every worker count.
	Workers int
	// Rate and Cooldown carry the zmap engine's pacing and post-send
	// receive window — needed on asynchronous wire transports; the
	// loopback needs neither.
	Rate     int
	Cooldown time.Duration
}

// Stats summarizes a sweep: a sweep is a zmap scan, so its counters are
// the engine's.
type Stats = zmap.Stats

// Handler consumes hops. Calls are serialized by the engine's merge
// stage, as with zmap.Handler.
type Handler func(Hop)

// HopLimitModule implements zmap.ProbeModule: echo requests swept over
// hop limits 1..MaxTTL, the TTL riding in the echo sequence field —
// yarrp's trick for recovering the probed hop from the quoted packet
// without per-probe state. Multiplier exposes the sweep to the engine as
// targets × MaxTTL positions of one cyclic permutation.
type HopLimitModule struct {
	// MaxTTL bounds the sweep; each target is probed at every hop limit
	// in [1, MaxTTL].
	MaxTTL int
}

// Multiplier implements zmap.ProbeModule.
func (m HopLimitModule) Multiplier() int { return m.MaxTTL }

// NewProber implements zmap.ProbeModule.
func (m HopLimitModule) NewProber(cfg *zmap.Config, worker int) zmap.Prober {
	return &hopProber{tmpl: icmp6.NewEchoTemplate(cfg.Source), seed: cfg.Seed}
}

type hopProber struct {
	tmpl *icmp6.EchoTemplate
	seed uint64
}

// MakeProbe implements zmap.Prober: position pos probes at hop limit
// pos+1, carried both in the IPv6 header and the low byte of the echo
// sequence field (a TTL always fits one byte). The re-probe attempt
// rides in the sequence high byte so retransmissions are independent
// loss trials — and so attempt 0 probes stay byte-identical to the
// original single-pass yarrp loop.
func (p *hopProber) MakeProbe(target ip6.Addr, pos, attempt int) []byte {
	ttl := pos + 1
	seq := uint16(ttl) | uint16(attempt)<<8
	b := p.tmpl.Packet(target, validationID(p.seed, target), seq)
	b[7] = uint8(ttl) // IPv6 header hop-limit byte; checksum-neutral
	return b
}

// Validate implements zmap.ProbeModule. Result.Seq carries the TTL
// (the sequence low byte; the high byte is the re-probe attempt).
func (m HopLimitModule) Validate(cfg *zmap.Config, pkt *icmp6.Packet) (zmap.Result, bool) {
	switch pkt.Message.Type {
	case icmp6.TypeEchoReply:
		id, seq, ok := pkt.Message.Echo()
		if !ok || id != validationID(cfg.Seed, pkt.Header.Src) {
			return zmap.Result{}, false
		}
		return zmap.Result{
			Target: pkt.Header.Src,
			From:   pkt.Header.Src,
			Type:   pkt.Message.Type,
			Code:   pkt.Message.Code,
			Seq:    seq & 0xff,
		}, true
	case icmp6.TypeDestinationUnreachable, icmp6.TypeTimeExceeded:
		quoted, ok := pkt.Message.InvokingPacket()
		if !ok {
			return zmap.Result{}, false
		}
		var orig icmp6.Packet
		if err := orig.UnmarshalNoVerify(quoted); err != nil {
			return zmap.Result{}, false
		}
		id, seq, ok := orig.Message.Echo()
		if !ok || orig.Message.Type != icmp6.TypeEchoRequest {
			return zmap.Result{}, false
		}
		if id != validationID(cfg.Seed, orig.Header.Dst) {
			return zmap.Result{}, false
		}
		return zmap.Result{
			Target: orig.Header.Dst,
			From:   pkt.Header.Src,
			Type:   pkt.Message.Type,
			Code:   pkt.Message.Code,
			Seq:    seq & 0xff,
		}, true
	}
	return zmap.Result{}, false
}

// engineConfig maps a sweep Config onto the shared engine.
func engineConfig(cfg Config) (zmap.Config, error) {
	if cfg.MaxTTL == 0 {
		cfg.MaxTTL = 16
	}
	if cfg.MaxTTL < 1 || cfg.MaxTTL > 255 {
		return zmap.Config{}, fmt.Errorf("yarrp: MaxTTL %d out of range", cfg.MaxTTL)
	}
	return zmap.Config{
		Source:   cfg.Source,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Rate:     cfg.Rate,
		Cooldown: cfg.Cooldown,
		Module:   HopLimitModule{MaxTTL: cfg.MaxTTL},
	}, nil
}

// hopHandler adapts a Hop handler to the engine's Result stream.
func hopHandler(h Handler) zmap.Handler {
	if h == nil {
		return nil
	}
	return func(r zmap.Result) {
		h(Hop{Target: r.Target, TTL: int(r.Seq), From: r.From, Type: r.Type, Code: r.Code})
	}
}

// Trace probes every (target, ttl) pair in pseudorandom order through
// tr. With cfg.Workers unset it keeps the historical single-worker
// contract; setting Workers > 1 shares tr across workers (Loopback and
// UDP tolerate that). TraceWorkers gives each worker its own transport.
func Trace(ctx context.Context, tr zmap.Transport, ts zmap.TargetSet, cfg Config, h Handler) (Stats, error) {
	zcfg, err := engineConfig(cfg)
	if err != nil {
		return Stats{}, err
	}
	return zmap.Scan(ctx, tr, ts, zcfg, hopHandler(h))
}

// TraceWorkers runs a multi-worker sweep: cfg.Workers workers (0 means
// GOMAXPROCS), each with its own transport from the factory, partition
// the (target × TTL) permutation exactly as zmap.ScanWorkers partitions
// a scan — the swept set is byte-identical for every worker count.
func TraceWorkers(ctx context.Context, factory zmap.TransportFactory, ts zmap.TargetSet, cfg Config, h Handler) (Stats, error) {
	return TraceSource(ctx, factory, zmap.NewPermutedSource(ts), cfg, h)
}

// TraceSource runs a sweep over an arbitrary target source — the
// hop-limit module composed with the engine's source layer, so a sweep
// can ride a generator-backed or feedback source exactly like any scan.
func TraceSource(ctx context.Context, factory zmap.TransportFactory, src zmap.TargetSource, cfg Config, h Handler) (Stats, error) {
	zcfg, err := engineConfig(cfg)
	if err != nil {
		return Stats{}, err
	}
	return zmap.ScanSource(ctx, factory, src, zcfg, hopHandler(h))
}

// validationID is the sweep's per-target validation field. (Kept as the
// historical yarrp hash — distinct from zmap's — so seed datasets remain
// byte-stable across the engine unification.)
func validationID(seed uint64, target ip6.Addr) uint16 {
	return uint16(seed>>32) ^ uint16(seed) ^ uint16(target.High64()>>48) ^
		uint16(target.High64()) ^ uint16(target.IID()>>32) ^ uint16(target.IID())
}

// Path is a reconstructed forwarding path toward one target.
type Path struct {
	Target ip6.Addr
	Hops   []Hop // sorted by TTL, one entry per responding TTL
}

// LastHop returns the final responding interface on the path — the CPE
// for probes into customer space — preferring the lowest-TTL
// non-time-exceeded response (the device that terminated the probe), and
// otherwise the highest-TTL responder.
func (p Path) LastHop() (Hop, bool) {
	if len(p.Hops) == 0 {
		return Hop{}, false
	}
	for _, h := range p.Hops {
		if h.Type != icmp6.TypeTimeExceeded {
			return h, true
		}
	}
	return p.Hops[len(p.Hops)-1], true
}

// Collector accumulates hops into per-target paths.
type Collector struct {
	mu    sync.Mutex
	paths map[ip6.Addr]*Path
}

// NewCollector returns an empty collector; its Add method is a Handler.
func NewCollector() *Collector {
	return &Collector{paths: make(map[ip6.Addr]*Path)}
}

// Add records one hop.
func (c *Collector) Add(h Hop) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.paths[h.Target]
	if !ok {
		p = &Path{Target: h.Target}
		c.paths[h.Target] = p
	}
	p.Hops = append(p.Hops, h)
}

// Paths returns the reconstructed paths, hops sorted by TTL, targets
// sorted by address.
func (c *Collector) Paths() []Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Path, 0, len(c.paths))
	for _, p := range c.paths {
		sort.Slice(p.Hops, func(i, j int) bool { return p.Hops[i].TTL < p.Hops[j].TTL })
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.Less(out[j].Target) })
	return out
}
