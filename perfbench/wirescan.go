package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"time"

	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// The wire workload sweeps one probe per /64 over the test world's
// four pool /48s (262 144 probes) through real loopback UDP sockets
// into an in-process simnet server, batched 64 probes per syscall by
// one worker, at a fixed offered rate below the loss knee.
const (
	wireRate     = 250_000
	wireBatch    = 64
	wireCooldown = 100 * time.Millisecond
	// wireLossLimit is the loss a ladder rung may show and still count.
	wireLossLimit = 0.001
	wireTrials    = 2
	// wireWorldSeed fixes the world, as discovery does, so every
	// workload seed sweeps the same responders; the workload seed draws
	// the probed IIDs and the scan seed.
	wireWorldSeed = 103
)

// wireRungs is the offered-rate ladder of the traced run, with the
// per-rung metric names.
var wireRungs = []struct {
	pps  int
	name string
}{
	{250_000, "zmap.udp.loss.250kpps"},
	{500_000, "zmap.udp.loss.500kpps"},
	{1_000_000, "zmap.udp.loss.1mpps"},
	{2_000_000, "zmap.udp.loss.2mpps"},
	{4_000_000, "zmap.udp.loss.4mpps"},
}

// resultKey is one validated result, minus the worker that produced it.
type resultKey struct {
	target, from ip6.Addr
	typ, code    uint8
	seq          uint16
}

func cmpResult(a, b resultKey) int {
	if c := a.target.Cmp(b.target); c != 0 {
		return c
	}
	if c := a.from.Cmp(b.from); c != 0 {
		return c
	}
	if a.typ != b.typ {
		return int(a.typ) - int(b.typ)
	}
	if a.code != b.code {
		return int(a.code) - int(b.code)
	}
	return int(a.seq) - int(b.seq)
}

// diffResults counts oracle results missing from got and results in
// got the oracle does not have; both are sorted.
func diffResults(got, want []resultKey) (missing, extra int) {
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case i == len(got):
			missing++
			j++
		case j == len(want):
			extra++
			i++
		default:
			switch c := cmpResult(got[i], want[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				extra++
				i++
			default:
				missing++
				j++
			}
		}
	}
	return missing, extra
}

type wireFixture struct {
	world  *simnet.World
	ts     *zmap.SubnetTargets
	cfg    zmap.Config
	want   []resultKey // the in-process loopback scan, sorted
	got    []resultKey // reused by every sweep, so the harness allocates nothing per sweep
	addr   string
	cancel context.CancelFunc
	done   chan error
	conn   *net.UDPConn
}

// newWire builds the world, runs the loopback oracle and starts the
// UDP server the sweeps probe.
func newWire(ctx context.Context, seed uint64) (*wireFixture, error) {
	w := simnet.TestWorld(wireWorldSeed)
	var pools []ip6.Prefix
	for _, p := range w.Providers() {
		for _, pool := range p.Pools {
			pools = append(pools, pool.Prefix)
		}
	}
	ts, err := zmap.NewSubnetTargets(pools, 64, splitmix(seed, 2))
	if err != nil {
		return nil, err
	}
	f := &wireFixture{
		world: w,
		ts:    ts,
		cfg: zmap.Config{
			Source:   experiments.Vantage,
			Seed:     splitmix(seed, 3),
			Workers:  1,
			Batch:    wireBatch,
			Rate:     wireRate,
			Cooldown: wireCooldown,
		},
	}
	oracle := f.cfg
	oracle.Batch, oracle.Rate, oracle.Cooldown = 0, 0, 0
	lb := zmap.NewLoopback(w, 0)
	want, _, err := f.sweep(ctx, func(int) (zmap.Transport, error) { return lb, nil }, oracle)
	if err != nil {
		return nil, fmt.Errorf("wire oracle: %w", err)
	}
	f.want, f.got = want, make([]resultKey, 0, len(want))

	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// ServeUDP enlarges its socket buffers only once its goroutine runs.
	// Enlarging them here first keeps the first sweep from overrunning a
	// default-sized buffer before then.
	_ = conn.SetReadBuffer(8 << 20) // best effort, as in ServeUDP
	_ = conn.SetWriteBuffer(8 << 20)
	sctx, cancel := context.WithCancel(ctx)
	f.conn, f.cancel, f.done = conn, cancel, make(chan error, 1)
	go func() { f.done <- w.ServeUDP(sctx, conn, 0) }()
	f.addr = conn.LocalAddr().String()
	return f, nil
}

// close stops the server and waits for it.
func (f *wireFixture) close() error {
	f.cancel()
	err := <-f.done
	f.conn.Close()
	return err
}

// sweep runs one scan and returns its sorted results, valid until the
// next sweep.
func (f *wireFixture) sweep(ctx context.Context, factory zmap.TransportFactory, cfg zmap.Config) ([]resultKey, zmap.Stats, error) {
	f.world.Clock().Set(simnet.Epoch)
	got := f.got[:0]
	st, err := zmap.ScanWorkers(ctx, factory, f.ts, cfg, func(r zmap.Result) {
		got = append(got, resultKey{r.Target, r.From, r.Type, r.Code, r.Seq})
	})
	f.got = got
	slices.SortFunc(got, cmpResult)
	return got, st, err
}

// wirePhase is the measured outcome of a stretch of sweeps.
type wirePhase struct {
	c                     cost // operations are probes sent
	recv, invalid         uint64
	walls, sendTimes      dist
	expected, lost, extra uint64
}

// measure sweeps at the fixed rate until the deadline (at least once),
// diffing every result set against the oracle.
func (f *wireFixture) measure(ctx context.Context, factory zmap.TransportFactory, cfg zmap.Config, deadline time.Time) (wirePhase, error) {
	var ph wirePhase
	for first := true; first || time.Now().Before(deadline); first = false {
		u0 := startSample()
		got, st, err := f.sweep(ctx, factory, cfg)
		el := time.Since(u0.wall)
		if err != nil {
			return ph, err
		}
		ph.c.add(u0, st.Sent)
		ph.walls = append(ph.walls, millis(el))
		ph.sendTimes = append(ph.sendTimes, st.SendTime.Seconds())
		ph.recv += st.Received
		ph.invalid += st.Invalid
		missing, extra := diffResults(got, f.want)
		ph.expected += uint64(len(f.want))
		ph.lost += uint64(missing)
		ph.extra += uint64(extra)
	}
	return ph, nil
}

// check charges a phase's oracle differences to the report: every
// oracle result is one attempt, and a missing or unexpected one fails.
func (ph wirePhase) check(r *report, what string) {
	r.attempted += ph.expected
	if bad := ph.lost + ph.extra; bad > 0 {
		r.failN(bad, "%s: %d of %d oracle results missing, %d unexpected", what, ph.lost, ph.expected, ph.extra)
	}
}

func runWire(ctx context.Context, o options) (*report, error) {
	f, setups, err := setupN(o.setups, func() (*wireFixture, error) { return newWire(ctx, o.seed) },
		func(f *wireFixture) { _ = f.close() }) // an earlier fixture's server error does not affect this run
	if err != nil {
		return nil, err
	}
	o.meta.Workers = f.cfg.Workers
	r := newReport()
	plain := zmap.UDPFactory(f.addr)

	if !o.trace {
		ph, err := f.measure(ctx, plain, f.cfg, time.Now().Add(o.duration()))
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		ph.check(r, fmt.Sprintf("%d pps", wireRate))
		setups.report(r, "world build, loopback oracle scan and server start")
		setOpCosts(r, ph.c, "probe", fmt.Sprintf("sent at %d pps offered; one sweep took %s with a %v cooldown", wireRate, ph.walls.summary("ms"), wireCooldown))
		return r, nil
	}

	half := o.duration() / 2
	base, err := f.measure(ctx, plain, f.cfg, time.Now().Add(half))
	if err != nil {
		f.close()
		return nil, err
	}
	base.check(r, fmt.Sprintf("%d pps", wireRate))
	tr := newTracer()
	traced, err := f.measure(ctx, tr.udpFactory(f.addr, f.world.Clock()), f.cfg, time.Now().Add(half))
	if err != nil {
		f.close()
		return nil, err
	}
	traced.check(r, fmt.Sprintf("%d pps traced", wireRate))

	// The ladder: the highest rung whose every trial, and every lower
	// rung's, stays within the loss limit. Losses here are measurements,
	// not failures.
	maxPPS, holding := 0.0, true
	for _, rung := range wireRungs {
		cfg := f.cfg
		cfg.Rate = rung.pps
		var worst float64
		var trials dist
		for t := 0; t < wireTrials; t++ {
			ph, err := f.measure(ctx, plain, cfg, time.Time{})
			if err != nil {
				f.close()
				return nil, err
			}
			loss := float64(ph.lost) / float64(ph.expected)
			trials = append(trials, loss)
			worst = max(worst, loss)
		}
		r.set(rung.name, trials.mean(), fmt.Sprintf("mean of %d trials, worst %.4g", wireTrials, worst))
		if holding = holding && worst <= wireLossLimit; holding {
			maxPPS = float64(rung.pps)
		}
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	r.set("zmap.udp.max_pps", maxPPS, fmt.Sprintf("highest rung with every trial at or below %.1f%% loss", wireLossLimit*100))
	r.set("zmap.udp.loss", float64(base.lost)/float64(base.expected), fmt.Sprintf("at %d pps, untraced", wireRate))
	r.set("zmap.scan.send_s", base.sendTimes.median(), base.sendTimes.summary("s"))
	r.set("zmap.scan.invalid_ratio", float64(base.invalid)/float64(base.recv), fmt.Sprintf("%d of %d received", base.invalid, base.recv))

	sbNs, sbPkts, note := tr.callNs("zmap.udp.send_batch", batchEvery)
	r.set("zmap.udp.send_batch_ns", sbNs, note)
	sb, _ := tr.durations("zmap.udp.send_batch")
	r.set("zmap.udp.send_batch_len", float64(sbPkts)/float64(len(sb)), "probes per sampled SendBatch")
	rbNs, rbPkts, note := tr.callNs("zmap.udp.recv_batch", batchEvery)
	r.set("zmap.udp.recv_batch_ns", rbNs, note+"; includes waiting for packets")
	rb, _ := tr.durations("zmap.udp.recv_batch")
	r.set("zmap.udp.recv_batch_len", float64(rbPkts)/float64(len(rb)), "packets per sampled RecvBatch")
	layers := measureProbeLayers(f.world, f.ts, tr.captures)
	layers.set(r, len(tr.captures))
	setTraceOverhead(r, base.c, traced.c)
	return r, tr.write(o.spansPath())
}
