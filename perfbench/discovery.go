package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// The discovery workload is the Table 1 headline: the §4 pipeline from
// two seed /48s of the test world, with 16 probes per /48 in stage 1
// (about 2.36 M probes a run), over the in-process loopback.
var discoverySeeds = []ip6.Prefix{
	ip6.MustParsePrefix("2001:db8:10::/48"),
	ip6.MustParsePrefix("2001:db9:30::/48"),
}

const discoveryProbesPer48 = 16

// The world and the study salt are fixed. The salt picks the probed
// IIDs, and with them how many /48s stage 2 finds dense: the test
// world's 2001:db8:20::/48 sits at the density threshold, so salts
// differ by a whole /48 of stage 3 probes. The seed sets the scan seed
// instead — the probe order and validation fields of every pass — so
// every seed does the same work in its own order.
const (
	discoveryWorldSeed = 103
	discoverySalt      = 1
)

// discoveryOutput is what the oracle compares: the rotating /48s, the
// address totals, the probes sent and the rendered Table 1.
type discoveryOutput struct {
	rotating                        []ip6.Prefix
	totalAddrs, euiAddrs, uniqueIDs int
	probes                          uint64
	table1                          string
}

func (o discoveryOutput) diff(want discoveryOutput) string {
	switch {
	case !slices.Equal(o.rotating, want.rotating):
		return fmt.Sprintf("rotating /48s %v, oracle %v", o.rotating, want.rotating)
	case o.totalAddrs != want.totalAddrs || o.euiAddrs != want.euiAddrs || o.uniqueIDs != want.uniqueIDs:
		return fmt.Sprintf("addresses %d/%d/%d, oracle %d/%d/%d", o.totalAddrs, o.euiAddrs, o.uniqueIDs,
			want.totalAddrs, want.euiAddrs, want.uniqueIDs)
	case o.probes != want.probes:
		return fmt.Sprintf("%d probes sent, oracle %d", o.probes, want.probes)
	case o.table1 != want.table1:
		return fmt.Sprintf("Table 1 differs:\n%s\noracle:\n%s", o.table1, want.table1)
	}
	return ""
}

type discoveryFixture struct {
	env  *experiments.Env
	salt uint64
	want discoveryOutput // the Workers: 1 oracle run
	last *experiments.Study
}

// newDiscovery builds the world and runs the one-worker oracle.
func newDiscovery(ctx context.Context, seed uint64) (*discoveryFixture, error) {
	f := &discoveryFixture{env: experiments.NewSmallEnv(discoveryWorldSeed), salt: discoverySalt}
	f.env.Scanner.Config.Seed = splitmix(seed, 1)
	want, _, err := f.run(ctx, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("discovery oracle: %w", err)
	}
	f.want = want
	return f, nil
}

// run performs one discovery from Epoch and renders Table 1. Every run
// starts at the same virtual instant — the pipeline advances the clock
// a day per run — so every run does identical work.
func (f *discoveryFixture) run(ctx context.Context, workers int, logf func(string, ...any)) (discoveryOutput, time.Duration, error) {
	f.env.World.Clock().Set(simnet.Epoch)
	f.env.Scanner.Config.Workers = workers
	s := &experiments.Study{Env: f.env, Cfg: experiments.StudyConfig{ProbesPer48: discoveryProbesPer48, Salt: f.salt, Logf: logf}}
	s.SeedEUI48s = discoverySeeds
	var table bytes.Buffer
	start := time.Now()
	err := s.RunDiscovery(ctx)
	if err == nil {
		err = s.Table1Render(5, &table)
	}
	el := time.Since(start)
	if err != nil {
		return discoveryOutput{}, el, err
	}
	f.last = s
	d := s.Discovery
	return discoveryOutput{
		rotating:   d.Rotating48s,
		totalAddrs: d.TotalAddrs,
		euiAddrs:   d.EUIAddrs,
		uniqueIDs:  d.UniqueIIDs,
		probes:     d.ProbesSent,
		table1:     table.String(),
	}, el, nil
}

// discoveryPhase is the measured outcome of a stretch of runs.
type discoveryPhase struct {
	c     cost // operations are probes
	walls dist // ms per run
}

// measure runs discovery at the given worker count until the deadline
// (at least once), checking every output against the oracle.
func (f *discoveryFixture) measure(ctx context.Context, r *report, workers int, deadline time.Time, logf func(string, ...any)) (discoveryPhase, error) {
	var ph discoveryPhase
	for first := true; first || time.Now().Before(deadline); first = false {
		u0 := startSample()
		out, el, err := f.run(ctx, workers, logf)
		if err != nil {
			return ph, err
		}
		ph.c.add(u0, out.probes)
		ph.walls = append(ph.walls, millis(el))
		r.attempted++
		if d := out.diff(f.want); d != "" {
			r.fail("workers=%d: %s", workers, d)
		}
	}
	return ph, nil
}

func runDiscovery(ctx context.Context, o options) (*report, error) {
	workers := min(2, o.nproc)
	f, setups, err := setupN(o.setups, func() (*discoveryFixture, error) {
		return newDiscovery(ctx, o.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	o.meta.Workers = workers

	if !o.trace {
		ph, err := f.measure(ctx, r, workers, time.Now().Add(o.duration()), nil)
		if err != nil {
			return nil, err
		}
		setups.report(r, "world build and Workers: 1 oracle run")
		setOpCosts(r, ph.c, "probe", fmt.Sprintf("sent by %d workers; one run and Table 1 took %s", workers, ph.walls.summary("ms")))
		return r, nil
	}

	// Untraced half: alternate one- and two-worker runs on the same
	// inputs; the two-worker runs are the baseline for the overhead.
	half := o.duration() / 2
	var w1, w2 discoveryPhase
	deadline := time.Now().Add(half)
	for first := true; first || time.Now().Before(deadline); first = false {
		p1, err := f.measure(ctx, r, 1, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		p2, err := f.measure(ctx, r, workers, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		w1.merge(p1)
		w2.merge(p2)
	}

	// Traced half: the loopback is wrapped, and the pipeline's stage
	// log lines are its stage-boundary timestamps.
	tr := newTracer()
	w := f.env.World
	plain := f.env.Scanner.NewTransport
	f.env.Scanner.NewTransport = func() (zmap.Transport, error) { return tr.loopback(w), nil }
	var run span
	stage := map[string]dist{}
	var mark time.Time
	logf := func(format string, _ ...any) {
		name, _, ok := strings.Cut(format, ":")
		if !ok || !strings.HasPrefix(name, "stage ") {
			return
		}
		now := time.Now()
		stage[name] = append(stage[name], now.Sub(mark).Seconds())
		mark = now
		s := tr.begin("core.pipeline."+strings.ReplaceAll(name, " ", ""), run.ID)
		tr.finish(s, 0)
	}
	var traced discoveryPhase
	var werr error
	deadline = time.Now().Add(half)
	for first := true; first || time.Now().Before(deadline); first = false {
		tr.newRequest()
		run = tr.begin("core.pipeline.run", 0)
		mark = time.Now()
		ph, err := f.measure(ctx, r, workers, time.Time{}, logf)
		tr.finish(run, int(ph.c.ops))
		if err != nil {
			werr = err
			break
		}
		traced.merge(ph)
	}
	f.env.Scanner.NewTransport = plain
	if werr != nil {
		return nil, werr
	}

	ts, err := zmap.NewSubnetTargetsN(f.last.Discovery.Seed32s, 48, f.salt, discoveryProbesPer48)
	if err != nil {
		return nil, err
	}
	layers := measureProbeLayers(w, ts, tr.captures)
	layers.set(r, len(tr.captures))
	exMean, _, note := tr.callNs("zmap.loopback.exchange", exchangeEvery)
	r.set("zmap.loopback.exchange_ns", exMean, note)
	// Self time is what the replayed layers leave unexplained: the loop,
	// counters, handler dispatch and pipeline maps, plus the cache misses
	// a hot replay does not pay.
	perProbe := float64(w1.c.wall) / float64(w1.c.ops)
	self := perProbe - (layers.targetsNs + layers.proberNs + layers.handleNs + layers.answerRatio*(layers.parseNs+layers.validateNs))
	r.set("zmap.engine.self_ns", self, fmt.Sprintf("Workers: 1 wall %.1f ns/probe minus the replayed layers", perProbe))
	r.set("zmap.engine.speedup_2w", w1.walls.median()/w2.walls.median(),
		fmt.Sprintf("Workers: 1 %s over Workers: %d %s", w1.walls.summary("ms"), workers, w2.walls.summary("ms")))
	for i := 1; i <= 3; i++ {
		d := stage[fmt.Sprintf("stage %d", i)]
		r.set(fmt.Sprintf("core.pipeline.stage%d_s", i), d.median(), d.summary("s"))
	}
	setTraceOverhead(r, w2.c, traced.c)
	return r, tr.write(o.spansPath())
}

func (p *discoveryPhase) merge(q discoveryPhase) {
	p.c.merge(q.c)
	p.walls = append(p.walls, q.walls...)
}
