package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/wire"
	"followscent/internal/zmap"
)

// The serve workload replays serveDays scan days of the default
// world's Wersatel /46 into a scentd store as fast as commits allow,
// while closed-loop clients query it over TCP. No probing happens while
// it is timed. Each client sends a fixed number of queries per replay,
// so every iteration does the same work — the same reads beside the
// same writes — however the two sides share the machine.
const (
	serveDays = 8
	// serveClientQueries is each client's requests per replay: about
	// as long as the replay itself takes, so reads run beside writes
	// for most of it.
	serveClientQueries = 2000
	// queryEvery samples one query span in this many.
	queryEvery = 16
	// serveWorldSeed fixes the world, the seed scentd's CLI defaults to,
	// so every workload seed serves the same corpus shape; the workload
	// seed draws the probed IIDs, the scan seed and the query subjects.
	serveWorldSeed = 42
)

var servePool = ip6.MustParsePrefix("2001:16b8:100::/46")

// serveMix is how many requests of each kind the seed-drawn mix holds.
// The counts are fixed so every seed serves the same kind of load; the
// seed draws the subjects and the order. The weights are an assumption,
// not observed traffic: nothing in the repository records what clients
// ask. The two census kinds cost milliseconds each against
// microseconds for the rest, and are kept rare so that a run's cost
// does not hinge on how many of them it drew. A gain on one kind shows
// in its scentd.answer_us metric, whatever its weight here. op=track is
// left out: it builds a world replica per request and would measure
// that, not serving.
var serveMix = []struct {
	kind  string
	count int
}{
	{"lookup", 40},
	{"prefixes", 36},
	{"stats", 10},
	{"vendors", 1},
	{"vendors_pool", 1},
	{"pools", 12},
}

type obs struct{ target, from ip6.Addr }

type scanDay struct {
	obs    []obs
	probes uint64
}

type serveFixture struct {
	rib  *bgp.Table
	days []scanDay
	obs  uint64 // observations over every day
	mix  []scentd.Request
	kind []string // serveMix kind of each mix entry
	// oracle[k][i] is the JSON of scentd.Answer for mix[i] over a batch
	// corpus of the first k days.
	oracle     [][][]byte
	final      *core.Snapshot // the batch snapshot of every day
	finalStats []byte         // the JSON of its stats answer
}

// newServe scans the days, draws the query mix and computes the batch
// oracle for every committed-day count.
func newServe(ctx context.Context, seed uint64) (*serveFixture, error) {
	env := experiments.NewEnv(serveWorldSeed)
	env.Scanner.Config.Seed = splitmix(seed, 1)
	env.Scanner.Config.Workers = 1 // keeps each day's record order fixed
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{servePool}, 64, splitmix(seed, 2))
	if err != nil {
		return nil, err
	}
	f := &serveFixture{rib: env.World.RIB()}
	for day := 0; day < serveDays; day++ {
		var d scanDay
		st, err := env.Scanner.Scan(ctx, ts, splitmix(seed, 3), func(r zmap.Result) {
			d.obs = append(d.obs, obs{r.Target, r.From})
		})
		if err != nil {
			return nil, fmt.Errorf("serve day %d scan: %w", day, err)
		}
		d.probes = st.Sent
		f.days = append(f.days, d)
		f.obs += uint64(len(d.obs))
		env.Wait(24 * time.Hour)
	}
	f.drawMix(rand.New(rand.NewPCG(seed, 0x5e7e)))

	reg := oui.Builtin()
	batch := core.NewCorpus(f.rib)
	snap := batch.Snapshot()
	for k := 0; ; k++ {
		answers := make([][]byte, len(f.mix))
		for i, req := range f.mix {
			if answers[i], err = json.Marshal(scentd.Answer(snap, reg, req)); err != nil {
				return nil, err
			}
		}
		f.oracle = append(f.oracle, answers)
		if k == serveDays {
			break
		}
		sd := batch.NewScanDay(k)
		for _, o := range f.days[k].obs {
			sd.Record(o.target, o.from)
		}
		sd.AddProbes(f.days[k].probes)
		sd.Commit()
		snap = batch.Snapshot()
	}
	f.final = snap
	if f.finalStats, err = json.Marshal(scentd.Answer(snap, reg, scentd.Request{Op: "stats"})); err != nil {
		return nil, err
	}
	return f, nil
}

// drawMix draws the subjects of the mix from the first day's EUI-64
// responders and shuffles the order.
func (f *serveFixture) drawMix(rng *rand.Rand) {
	var eui []ip6.Addr
	for _, o := range f.days[0].obs {
		if ip6.AddrIsEUI64(o.from) {
			eui = append(eui, o.from)
		}
	}
	pick := func() ip6.Addr { return eui[rng.IntN(len(eui))] }
	for _, m := range serveMix {
		for i := 0; i < m.count; i++ {
			var req scentd.Request
			switch m.kind {
			case "lookup":
				req = scentd.Request{Op: "lookup", Addr: pick().String()}
			case "prefixes":
				req = scentd.Request{Op: "prefixes", IID: fmt.Sprintf("%016x", pick().IID())}
			case "vendors_pool":
				req = scentd.Request{Op: "vendors", Prefix: servePool.String()}
			default:
				req = scentd.Request{Op: m.kind}
			}
			f.mix = append(f.mix, req)
			f.kind = append(f.kind, m.kind)
		}
	}
	rng.Shuffle(len(f.mix), func(i, j int) {
		f.mix[i], f.mix[j] = f.mix[j], f.mix[i]
		f.kind[i], f.kind[j] = f.kind[j], f.kind[i]
	})
}

// servePhase is the measured outcome of a stretch of iterations.
type servePhase struct {
	c        cost          // whole iterations: the replay and every query; operations are observations
	ingest   time.Duration // wall time of the replays alone
	querying time.Duration // client wall time, summed over clients
	queries  uint64
	lat      dist            // µs per query, send to answer
	rtt      map[string]dist // lat by request kind
	commits  [serveDays]dist
	recordNs dist // per Record call, one sample per traced day
	journal  dist // journal bytes per day, one sample per iteration
}

func newServePhase() *servePhase { return &servePhase{rtt: map[string]dist{}} }

// iteration opens a fresh store and server, replays every day while
// the clients query, and tears everything down again. A non-nil tracer
// records a span per iteration, per day's Record loop and Commit, and
// per sampled query.
func (f *serveFixture) iteration(ctx context.Context, dir string, clients int, r *report, ph *servePhase, tr *tracer) error {
	var iter span
	if tr != nil {
		tr.newRequest()
		iter = tr.begin("scentd.iteration", 0)
	}
	tmp, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	journal := filepath.Join(tmp, "corpus.journal")
	st, err := scentd.OpenStore(journal, f.rib)
	if err != nil {
		return err
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- (&scentd.Server{Store: st}).Serve(sctx, ln) }()

	// Each client starts at its own offset into the mix.
	conns := make([]net.Conn, clients)
	for c := range conns {
		if conns[c], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			for _, conn := range conns[:c] {
				conn.Close()
			}
			cancel()
			<-served
			return err
		}
	}
	// Day 0 lands before the clients start, so no query sees the empty
	// corpus: what a census costs then barely depends on how far the
	// replay has got, and every iteration does the same work.
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	u0 := startSample()
	werr := f.ingest(st, 0, ph, tr, iter.ID)
	for c, conn := range conns {
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			results[c] = f.client(conn, c*len(f.mix)/clients, tr, iter.ID)
		}(c, conn)
	}
	for day := 1; day < serveDays && werr == nil; day++ {
		werr = f.ingest(st, day, ph, tr, iter.ID)
	}
	ph.ingest += time.Since(u0.wall)
	wg.Wait()
	if werr == nil {
		ph.c.add(u0, f.obs)
	}
	if tr != nil {
		tr.finish(iter, serveDays)
	}
	// The final state, asked over the wire once the replay is done, must
	// equal the batch corpus of every day.
	if werr == nil {
		var got json.RawMessage
		werr = f.ask(ln.Addr().String(), scentd.Request{Op: "stats"}, &got)
		r.attempted++
		if werr == nil && !bytes.Equal(got, f.finalStats) {
			r.fail("final stats %.200s, batch corpus %.200s", got, f.finalStats)
		}
	}
	cancel()
	if err := <-served; werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	if info, err := os.Stat(journal); err == nil {
		ph.journal = append(ph.journal, float64(info.Size())/serveDays)
	}
	for _, cr := range results {
		if tr != nil {
			tr.merge(cr.spans, nil)
		}
		ph.queries += cr.n
		ph.querying += cr.took
		ph.lat = append(ph.lat, cr.lat...)
		for k, d := range cr.rtt {
			ph.rtt[k] = append(ph.rtt[k], d...)
		}
		r.attempted += cr.n
		if cr.failed > 0 {
			r.failN(cr.failed, "%s", cr.firstErr)
		}
	}
	return nil
}

// ask sends one request on a connection of its own and reads the raw
// answer frame.
func (f *serveFixture) ask(addr string, req scentd.Request, raw *json.RawMessage) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, req); err != nil {
		return err
	}
	return wire.ReadFrame(conn, raw)
}

// ingest replays one day through the store, timing the commit.
func (f *serveFixture) ingest(st *scentd.Store, day int, ph *servePhase, tr *tracer, parent uint32) error {
	di, err := st.BeginDay(day)
	if err != nil {
		return err
	}
	d := f.days[day]
	var rec span
	if tr != nil {
		rec = tr.begin("scentd.record", parent)
	}
	start := time.Now()
	for _, o := range d.obs {
		di.Record(o.target, o.from)
	}
	if tr != nil {
		ph.recordNs = append(ph.recordNs, float64(time.Since(start))/float64(len(d.obs)))
		tr.finish(rec, len(d.obs))
	}
	di.AddProbes(d.probes)
	var commit span
	if tr != nil {
		commit = tr.begin("scentd.commit", parent)
	}
	start = time.Now()
	if err := di.Commit(); err != nil {
		return err
	}
	ph.commits[day] = append(ph.commits[day], millis(time.Since(start)))
	if tr != nil {
		tr.finish(commit, day)
	}
	return nil
}

type clientResult struct {
	n, failed uint64
	took      time.Duration
	firstErr  string
	lat       dist
	rtt       map[string]dist // lat by request kind
	spans     []span          // sampled query spans of a traced iteration
}

// client sends serveClientQueries requests of the mix in order from
// offset, each as soon as the previous is answered. Every answer must
// be byte-identical to the batch oracle for the day count it claims;
// the raw frame is compared, so checking costs no decoding.
func (f *serveFixture) client(conn net.Conn, offset int, tr *tracer, parent uint32) (cr clientResult) {
	cr.rtt = map[string]dist{}
	start := time.Now()
	defer func() { cr.took = time.Since(start) }()
	for i := offset; i < offset+serveClientQueries; i++ {
		q := i % len(f.mix)
		var raw json.RawMessage
		sent := time.Now()
		err := wire.WriteFrame(conn, f.mix[q])
		if err == nil {
			err = wire.ReadFrame(conn, &raw)
		}
		done := time.Now()
		cr.n++
		if err != nil {
			cr.failed++
			cr.firstErr = fmt.Sprintf("%s request: %v", f.kind[q], err)
			return cr // the connection is unusable
		}
		us := micros(done.Sub(sent))
		cr.lat = append(cr.lat, us)
		cr.rtt[f.kind[q]] = append(cr.rtt[f.kind[q]], us)
		if tr != nil && cr.n%queryEvery == 0 {
			cr.spans = append(cr.spans, span{ID: tr.nextID.Add(1), Parent: parent, Req: tr.req.Load(),
				Name: "scentd.query." + f.kind[q], Start: int64(sent.Sub(tr.t0)), Dur: int64(done.Sub(sent))})
		}
		if !f.matches(q, raw) {
			cr.failed++
			if cr.firstErr == "" {
				cr.firstErr = fmt.Sprintf("%s answer matches no batch oracle: %.200s", f.kind[q], raw)
			}
		}
	}
	return cr
}

// matches reports whether raw is the oracle answer to mix[q] for some
// committed-day count. Each answer embeds its day set, so a match also
// proves the day set it claims. Day 0 is committed before any client
// starts, so the empty corpus is never a right answer.
func (f *serveFixture) matches(q int, raw []byte) bool {
	for k := 1; k < len(f.oracle); k++ {
		if bytes.Equal(raw, f.oracle[k][q]) {
			return true
		}
	}
	return false
}

func (f *serveFixture) measure(ctx context.Context, o options, clients int, r *report, deadline time.Time, tr *tracer) (*servePhase, error) {
	ph := newServePhase()
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := f.iteration(ctx, o.workDir, clients, r, ph, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

func runServe(ctx context.Context, o options) (*report, error) {
	clients := min(2, o.nproc)
	o.meta.Clients = clients
	f, setups, err := setupN(o.setups, func() (*serveFixture, error) { return newServe(ctx, o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	load := fmt.Sprintf("%d closed-loop clients, %d queries each per replay", clients, serveClientQueries)

	if !o.trace {
		ph, err := f.measure(ctx, o, clients, r, time.Now().Add(o.duration()), nil)
		if err != nil {
			return nil, err
		}
		setups.report(r, fmt.Sprintf("world build, %d day scans and the batch oracle", serveDays))
		setOpCosts(r, ph.c, "observation", "ingested while serving "+load)
		return r, nil
	}

	half := o.duration() / 2
	base, err := f.measure(ctx, o, clients, r, time.Now().Add(half), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := f.measure(ctx, o, clients, r, time.Now().Add(half), tr)
	if err != nil {
		return nil, err
	}

	var all, early, late dist
	for day, d := range base.commits {
		all = append(all, d...)
		switch {
		case day < serveDays/4:
			early = append(early, d...)
		case day >= serveDays-serveDays/4:
			late = append(late, d...)
		}
	}
	r.set("scentd.commit_ms.p50", all.median(), all.summary("ms"))
	r.set("scentd.commit_ms.early", early.median(), early.summary("ms")+fmt.Sprintf(", first %d days", serveDays/4))
	r.set("scentd.commit_ms.late", late.median(), late.summary("ms")+fmt.Sprintf(", last %d days", serveDays/4))
	r.set("scentd.record_ns", traced.recordNs.median(), traced.recordNs.summary("ns")+", per Record call, one sample per day")
	r.set("scentd.journal_bytes_per_day", base.journal.median(), "")
	r.set("scentd.queries_per_s", float64(base.queries)*float64(clients)/base.querying.Seconds(), load+", while they ran")
	r.set("scentd.ingest_obs_per_s", float64(base.c.ops)/base.ingest.Seconds(), "observations over replay wall time alone")
	r.set("scentd.query_p50_us", base.lat.median(), base.lat.summary("us")+", query round trip during ingestion")
	if q, v, ok := base.lat.tail(); ok {
		r.set("scentd.query_tail_us", v, fmt.Sprintf("p%g of %d queries", q*100, len(base.lat)))
	}

	// Snapshot cost on the final corpus, after ingestion has stopped.
	var snapMs dist
	var allocMB float64
	for i := 0; i < 3; i++ {
		u0 := readUsage()
		f.final.Corpus().Snapshot()
		u1 := readUsage()
		snapMs = append(snapMs, millis(u1.wall.Sub(u0.wall)))
		allocMB = float64(u1.alloc-u0.alloc) / (1 << 20)
	}
	r.set("core.snapshot.ms", snapMs.median(), snapMs.summary("ms")+fmt.Sprintf(", %d-day corpus", serveDays))
	r.set("core.snapshot.alloc_mb", allocMB, "")

	// In-process answers and framing per kind on the final snapshot. The
	// round-trip overhead is each kind's served round trip minus its
	// in-process answer, weighted by how often the kind was served.
	reg := oui.Builtin()
	var frameUs dist
	var frameBytes, overhead float64
	var served int
	for _, m := range serveMix {
		var d dist
		for q, req := range f.mix {
			if f.kind[q] != m.kind {
				continue
			}
			for rep := 0; rep < 20; rep++ {
				start := time.Now()
				resp := scentd.Answer(f.final, reg, req)
				d = append(d, micros(time.Since(start)))
				if rep == 0 {
					us, n, err := frameRoundTrip(resp)
					if err != nil {
						return nil, err
					}
					frameUs = append(frameUs, us)
					frameBytes += float64(n)
				}
			}
		}
		r.set("scentd.answer_us."+m.kind, d.median(), d.summary("us"))
		rtt := traced.rtt[m.kind]
		overhead += float64(len(rtt)) * (rtt.median() - d.median())
		served += len(rtt)
	}
	r.set("wire.frame_us", frameUs.median(), frameUs.summary("us")+", WriteFrame and ReadFrame of each mix answer")
	r.set("wire.frame_bytes", frameBytes/float64(len(f.mix)), "mean over the mix")
	r.set("scentd.rtt_overhead_us", overhead/float64(served), "served round trip p50 minus in-process answer p50, per kind, weighted by queries served")
	setTraceOverhead(r, base.c, traced.c)
	return r, tr.write(o.spansPath())
}

// frameRoundTrip writes and reads one framed response in memory.
func frameRoundTrip(resp scentd.Response) (us float64, n int, err error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := wire.WriteFrame(&buf, resp); err != nil {
		return 0, 0, err
	}
	n = buf.Len()
	var back scentd.Response
	if err := wire.ReadFrame(&buf, &back); err != nil {
		return 0, 0, err
	}
	return micros(time.Since(start)), n, nil
}
