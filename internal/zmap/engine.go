package zmap

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// Config tunes a scan.
type Config struct {
	// Source is the vantage point's address, used as the probe source.
	Source ip6.Addr
	// Rate is the probe rate in packets per second, divided evenly
	// among the workers; 0 disables pacing (full speed, the right
	// choice against the in-process simulator).
	Rate int
	// HopLimit for probe packets; 0 means 64. Sweep modules that own
	// the hop limit (e.g. yarrp's hop-limit module) ignore it.
	HopLimit int
	// ProbesPerTarget re-probes each target this many times (default 1).
	ProbesPerTarget int
	// Shard/Shards split the scan zmap-style: this instance sends only
	// the positions congruent to Shard modulo Shards. Defaults to 0/1.
	Shard, Shards int
	// Workers is the number of concurrent sender/receiver pairs this
	// instance runs; 0 means GOMAXPROCS (except in plain Scan, which
	// keeps its historical single-worker contract for the one transport
	// it is handed). The instance's shard is partitioned into Workers
	// sub-shards by position, so the probed target set is identical for
	// every worker count and each worker sends its subsequence in the
	// sequential engine's order. Scan results are worker-count-invariant
	// as long as the simulated world's ICMPv6 rate limits are not
	// saturated: token consumption is arrival-ordered, so which probes a
	// saturated device drops depends on worker scheduling (exactly as on
	// a real network — the paper's randomized scan order exists to stay
	// below those limits).
	Workers int
	// Batch selects vectored wire I/O: when > 1, each worker builds
	// probes into a preallocated ring and moves up to Batch packets per
	// transport operation (one sendmmsg/recvmmsg syscall on the UDP
	// transport; other transports run the same engine loops through a
	// batch-over-single adapter). The probed target set, probe order
	// per worker and validated results are byte-identical with and
	// without batching — only the syscall count changes. 0 or 1 keeps
	// the per-packet path.
	Batch int
	// ConcurrentHandlers invokes the Handler concurrently from every
	// worker instead of serializing calls through the merge mutex. The
	// handler must then be safe for concurrent use (see Result.Worker).
	ConcurrentHandlers bool
	// Seed randomizes the scan order and the per-target validation
	// field. Scans with equal seeds probe in identical order.
	Seed uint64
	// Cooldown is how long to keep receiving after the last probe
	// (needed on asynchronous transports; the loopback needs none).
	Cooldown time.Duration
	// Module selects the probe type: construction, validation and the
	// per-target position multiplier. Nil means EchoModule — the
	// paper's single full-hop-limit ICMPv6 echo per target.
	Module ProbeModule
	// Failure selects how the scan responds to transport errors; nil
	// means AbortAll, the historical first-error-cancels-everything
	// semantics. See FailurePolicy.
	Failure FailurePolicy
	// Progress, when non-nil, tracks per-worker high-water marks the
	// caller can snapshot into a Checkpoint at any moment (the SIGINT
	// path). A QuarantineWorker scan allocates one internally when nil,
	// so its PartialError always carries a resumable remainder.
	Progress *Progress
	// Resume, when non-nil, skips the stream positions a previous run
	// of the same scan already covered; it is validated against this
	// configuration at scan start. The caller must supply the same
	// target source — the checkpoint cannot record it.
	Resume *Checkpoint
}

func (c *Config) fill() {
	if c.HopLimit == 0 {
		c.HopLimit = 64
	}
	if c.ProbesPerTarget == 0 {
		c.ProbesPerTarget = 1
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Module == nil {
		c.Module = EchoModule{}
	}
	if c.Batch < 0 {
		c.Batch = 0
	}
	c.Workers = c.NumWorkers()
}

// NumWorkers resolves the effective worker count: Workers when
// positive, GOMAXPROCS otherwise. fill() delegates here so the engine
// and callers sizing worker-indexed state always agree.
func (c Config) NumWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// multiplier resolves the module's per-target position count (>= 1).
func (c Config) multiplier() uint64 {
	if c.Module == nil {
		return 1
	}
	if m := c.Module.Multiplier(); m > 1 {
		return uint64(m)
	}
	return 1
}

// Stats summarizes a completed scan.
type Stats struct {
	Sent     uint64 // probes transmitted
	Received uint64 // packets seen by the receiver
	Matched  uint64 // packets that validated and produced a Result
	Invalid  uint64 // packets that failed parsing or validation
	// SendTime is the wall-clock duration of the send phase — workers
	// launched until the last sender finished, cooldown excluded. Sent
	// over SendTime is the scan's true probe rate, free of the cooldown
	// timer's multi-millisecond slop.
	SendTime time.Duration
}

// TransportFactory builds the transport a scan worker owns for one scan
// pass. It is called once per worker, so each worker gets its own
// sender+receiver pair (its own socket, against a wire transport).
type TransportFactory func(worker int) (Transport, error)

// Scan probes every target in ts through tr, invoking h for each
// validated response. It returns when all probes are sent and the
// cooldown has elapsed, or when ctx is cancelled. With Workers unset it
// keeps the historical contract — one sender and one receiver on the
// caller's transport; setting Workers > 1 shares tr across workers,
// which the transport must then tolerate (Loopback and UDP do).
// ScanWorkers gives each worker its own transport instead.
func Scan(ctx context.Context, tr Transport, ts TargetSet, cfg Config, h Handler) (Stats, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	shared := &sharedTransport{tr: tr}
	return ScanWorkers(ctx, func(int) (Transport, error) { return shared.ref(), nil }, ts, cfg, h)
}

// ScanWorkers runs a multi-worker scan over an indexable TargetSet,
// walked through the cyclic permutation: cfg.Workers workers, each with
// its own transport from the factory, partition this instance's shard of
// the probe-position permutation (targets × the module's multiplier).
// The union of the workers' probe sets is byte-identical to a sequential
// scan with the same seed, and each worker's probe order is a
// subsequence of the sequential order.
func ScanWorkers(ctx context.Context, factory TransportFactory, ts TargetSet, cfg Config, h Handler) (Stats, error) {
	return ScanSource(ctx, factory, NewPermutedSource(ts), cfg, h)
}

// ScanSource runs a multi-worker scan over an arbitrary TargetSource —
// the general entry point behind ScanWorkers. The source owns target
// generation (which pairs, in what order, partitioned how); the engine
// owns everything else. Sources with a known length of zero fail
// up-front; unbounded sources run until their streams end or the
// context is cancelled.
func ScanSource(ctx context.Context, factory TransportFactory, src TargetSource, cfg Config, h Handler) (Stats, error) {
	cfg.fill()
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return Stats{}, fmt.Errorf("zmap: shard %d of %d out of range", cfg.Shard, cfg.Shards)
	}
	if cfg.Resume != nil {
		if err := cfg.Resume.compatible(&cfg); err != nil {
			return Stats{}, err
		}
	}
	if n, known := src.Positions(&cfg); known && n == 0 {
		return Stats{}, fmt.Errorf("zmap: empty target set")
	}

	// A worker hitting a transport error aborts the whole scan promptly
	// through this derived context, rather than letting the surviving
	// workers finish their sub-shards before the error surfaces.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	e := &engine{cfg: cfg, src: src, handler: h, abort: cancel, stats: make([]workerStats, cfg.Workers)}
	e.raw, _ = cfg.Module.(RawValidator)
	switch p := cfg.Failure.(type) {
	case nil, AbortAll:
		// First error cancels every worker — the historical default.
	case RetryBackoff:
		r := p.fill()
		e.retry = &r
	case QuarantineWorker:
		e.quarantine = true
		if p.Retry != nil {
			r := p.Retry.fill()
			e.retry = &r
		}
	default:
		return Stats{}, fmt.Errorf("zmap: unknown failure policy %T", cfg.Failure)
	}
	e.prog = cfg.Progress
	if e.prog == nil && e.quarantine {
		e.prog = NewProgress()
	}
	if e.prog != nil {
		e.prog.start(&cfg, cfg.Resume)
	}
	if h != nil && cfg.Workers > 1 && !cfg.ConcurrentHandlers {
		// Merge stage: funnel every worker's results through one lock so
		// the Handler sees serialized calls, as with a single worker.
		var mu sync.Mutex
		e.handler = func(r Result) {
			mu.Lock()
			h(r)
			mu.Unlock()
		}
	}

	trs := make([]Transport, cfg.Workers)
	for w := range trs {
		tr, err := factory(w)
		if err != nil {
			for _, open := range trs[:w] {
				open.Close()
			}
			return Stats{}, err
		}
		trs[w] = tr
	}

	var sendWG, recvWG sync.WaitGroup
	sendStart := time.Now()
	for w, tr := range trs {
		if cfg.Batch > 1 {
			// Batched path: vectored send/receive through BatchTransport,
			// with non-batch transports adapted so every Batch > 1 scan
			// runs the same loops regardless of transport. This wins over
			// the Exchanger fast path by construction — batch semantics
			// are what the caller asked to exercise.
			bt := NewBatchAdapter(tr)
			recvWG.Add(1)
			go func(w int, bt BatchTransport) {
				defer recvWG.Done()
				e.receiveBatch(w, bt)
			}(w, bt)
			sendWG.Add(1)
			go func(w int, bt BatchTransport) {
				defer sendWG.Done()
				e.sendBatch(ctx, w, bt)
			}(w, bt)
			continue
		}
		if ex, ok := tr.(Exchanger); ok {
			// Synchronous transport: probe and response handled inline in
			// the sender loop — no receiver goroutine, queue or buffer
			// recycling on the hot path.
			sendWG.Add(1)
			go func(w int, ex Exchanger) {
				defer sendWG.Done()
				e.send(ctx, w, nil, ex)
			}(w, ex)
			continue
		}
		recvWG.Add(1)
		go func(w int, tr Transport) {
			defer recvWG.Done()
			e.receive(w, tr)
		}(w, tr)
		sendWG.Add(1)
		go func(w int, tr Transport) {
			defer sendWG.Done()
			e.send(ctx, w, tr, nil)
		}(w, tr)
	}
	sendWG.Wait()
	sendTime := time.Since(sendStart)

	if cfg.Cooldown > 0 && e.firstErr() == nil {
		select {
		case <-time.After(cfg.Cooldown):
		case <-ctx.Done():
		}
	}
	for _, tr := range trs {
		if err := tr.Close(); err != nil {
			e.setErr(err)
		}
	}
	recvWG.Wait()

	err := e.firstErr()
	if err == nil && len(e.qerrs) > 0 {
		// Quarantined workers but no systemic error: the results stand,
		// and the error carries exactly the remainder a resumed scan
		// must cover. (qerrs is read lock-free: every worker goroutine
		// has exited by now.)
		cp, cperr := e.prog.Checkpoint()
		if cperr != nil {
			err = cperr
		} else {
			err = &PartialError{Checkpoint: cp, WorkerErrs: e.qerrs}
		}
	}
	st := Stats{SendTime: sendTime}
	for i := range e.stats {
		ws := &e.stats[i]
		st.Sent += ws.sent.Load()
		st.Received += ws.received.Load()
		st.Matched += ws.matched.Load()
		st.Invalid += ws.invalid.Load()
	}
	return st, err
}

// workerStats is one worker's hot-path counters. Every probe bumps
// them, so no two workers may share a cache line: shared counters make
// each probe pull the line from whichever core wrote it last, and a
// second worker then buys no speedup (TestScanStatsWorkerInvariance
// pins the per-worker sums to the one-worker totals). sent sits on its
// own line because on the asynchronous path the worker's sender and
// receiver are separate goroutines. The padding follows paddedMark.
// The counters stay atomic so a live reader can sum them mid-scan.
type workerStats struct {
	sent atomic.Uint64
	_    [56]byte

	received, matched, invalid atomic.Uint64
	_                          [40]byte
}

// engine is the shared state of one scan's worker pool.
type engine struct {
	cfg     Config
	src     TargetSource
	handler Handler
	raw     RawValidator // non-nil when the module validates non-ICMPv6 responses
	abort   context.CancelFunc

	// Failure-policy state, resolved once at scan start.
	retry      *RetryBackoff // retry transient send errors; nil = no retries
	quarantine bool          // record dead workers instead of aborting
	prog       *Progress     // per-worker high-water marks; may be nil

	stats []workerStats // indexed by worker

	errMu sync.Mutex
	err   error
	qerrs map[int]error // quarantined workers' terminal errors
}

func (e *engine) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// fail records the first error and cancels the other workers.
func (e *engine) fail(err error) {
	e.setErr(err)
	e.abort()
}

func (e *engine) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// quarantineWorker records worker w's terminal error without aborting:
// the surviving workers finish their sub-shards, and the scan returns a
// *PartialError carrying the resumable remainder.
func (e *engine) quarantineWorker(w int, err error) {
	e.errMu.Lock()
	if e.qerrs == nil {
		e.qerrs = make(map[int]error)
	}
	e.qerrs[w] = err
	e.errMu.Unlock()
}

// sendRetry transmits one probe, retrying transient errors with the
// configured backoff. It returns nil on success, ctx.Err() when
// cancelled mid-backoff, and the terminal error otherwise.
func (e *engine) sendRetry(ctx context.Context, tr Transport, pkt []byte) error {
	err := tr.Send(pkt)
	if err == nil || e.retry == nil || !Transient(err) {
		return err
	}
	// The backoff jitter is keyed by probe content, like the fault
	// schedule itself: deterministic for a fixed scan, decorrelated
	// across probes.
	h := foldBytes(e.cfg.Seed, pkt)
	for try := 1; try <= e.retry.Attempts; try++ {
		t := time.NewTimer(e.retry.backoff(h, try))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if err = tr.Send(pkt); err == nil || !Transient(err) {
			return err
		}
	}
	return fmt.Errorf("zmap: %d retries exhausted: %w", e.retry.Attempts, err)
}

// send is worker w's probe loop: it walks the source's per-worker
// stream (the source owns ordering and the two-level shard partition)
// and paces. Exactly one of tr (asynchronous transport) and ex
// (synchronous fast path) is non-nil. All probe knowledge lives in the
// module's Prober: the engine only walks streams and moves bytes.
func (e *engine) send(ctx context.Context, w int, tr Transport, ex Exchanger) {
	cfg := &e.cfg
	// Each worker paces at Rate/Workers, expressed as a stretched
	// interval so the aggregate rate honours the cap exactly even when
	// Rate does not divide by Workers (or is smaller than Workers).
	var pacer *pacer
	if cfg.Rate > 0 {
		pacer = newPacerInterval(time.Second * time.Duration(cfg.Workers) / time.Duration(cfg.Rate))
	} else {
		pacer = newPacer(0)
	}
	prober := cfg.Module.NewProber(cfg, w)
	ws := &e.stats[w]
	respBuf := make([]byte, 0, 2048)
	var pkt icmp6.Packet
	done := ctx.Done()
	// Resuming: rm is this worker's high-water mark from the previous
	// run — attempt passes below rm.Attempt are fully covered, and the
	// first rm.Done positions of pass rm.Attempt are skipped. The
	// source-layer determinism contract makes position counts a sound
	// coordinate system: the resumed stream replays the same order.
	var rm WorkerMark
	if cfg.Resume != nil {
		rm = cfg.Resume.Marks[w]
	}
	for attempt := 0; attempt < cfg.ProbesPerTarget; attempt++ {
		if attempt < rm.Attempt {
			continue
		}
		var skip uint64
		if attempt == rm.Attempt {
			skip = rm.Done
		}
		// A fresh stream every attempt, so each re-probe pass covers the
		// same sub-shard of targets as the first.
		st, err := e.src.Stream(cfg, w)
		if err != nil {
			e.fail(err)
			return
		}
		poll := 0
		var consumed uint64
		for {
			target, pos, ok := st.Next()
			if !ok {
				break
			}
			if poll--; poll < 0 {
				// Cancellation is polled every 64 probes: cheap enough to
				// never matter, frequent enough to stop promptly — the only
				// stop an unbounded source gets besides stream exhaustion.
				poll = 63
				select {
				case <-done:
					closeStream(st)
					e.setErr(ctx.Err())
					return
				default:
				}
			}
			if consumed++; consumed <= skip {
				continue
			}
			// Pace before sending, so no probe leaves ahead of its slot.
			pacer.wait()
			sendBuf := prober.MakeProbe(target, pos, attempt)
			if ex != nil {
				resp, ok := ex.Exchange(sendBuf, respBuf[:0])
				ws.sent.Add(1)
				if ok {
					respBuf = resp
					ws.received.Add(1)
					e.deliver(w, &pkt, resp)
				}
			} else {
				if err := e.sendRetry(ctx, tr, sendBuf); err != nil {
					closeStream(st)
					switch {
					case err == ctx.Err():
						e.setErr(err)
					case e.quarantine:
						e.quarantineWorker(w, err)
					default:
						e.fail(err)
					}
					return
				}
				ws.sent.Add(1)
			}
			// The mark is stored only after the probe reached the
			// transport, so a checkpoint never claims unsent work — the
			// resumed scan re-probes anything in doubt rather than
			// skipping it.
			if e.prog != nil {
				e.prog.mark(w, attempt, consumed)
			}
		}
		closeStream(st)
		if e.prog != nil {
			e.prog.mark(w, attempt+1, 0)
		}
	}
}

// closeStream releases a stream's resources when its walk ends for any
// reason — exhaustion, cancellation or transport failure. Generator-
// backed streams rely on this to stop their feeding goroutines.
func closeStream(st Stream) {
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
}

// receive drains worker w's transport until it is closed, validating
// each packet and handing results to the merge stage.
func (e *engine) receive(w int, tr Transport) {
	buf := make([]byte, 64<<10)
	ws := &e.stats[w]
	var pkt icmp6.Packet
	for {
		m, err := tr.Recv(buf)
		if err != nil {
			if Transient(err) {
				// An injected stall/timeout: no packet was lost, keep
				// draining regardless of policy.
				continue
			}
			if err != io.EOF {
				// Transport failure: surface through stats only; the
				// sender side will also fail if it matters.
				ws.invalid.Add(1)
			}
			return
		}
		ws.received.Add(1)
		e.deliver(w, &pkt, buf[:m])
	}
}

// probeRing is a worker-private set of reusable probe buffers. Probers
// return slices aliasing their own template state, valid only until the
// next MakeProbe call, so the batched sender copies each probe into its
// ring lane; copying ~80 bytes is noise next to the syscall it saves.
// Lanes never shrink and are reused across every flush, so a steady
// send loop allocates nothing.
type probeRing struct {
	lanes [][]byte // preallocated backing, one lane per batch slot
	pkts  [][]byte // pkts[:n] alias the filled lanes, fed to SendBatch
	n     int
}

// probeLaneSize fits every shipped module's probe (the largest, the MLD
// general query, is 76 bytes) with slack; an outsized probe simply
// regrows its lane once.
const probeLaneSize = 512

func newProbeRing(batch int) *probeRing {
	r := &probeRing{lanes: make([][]byte, batch), pkts: make([][]byte, batch)}
	backing := make([]byte, batch*probeLaneSize)
	for i := range r.lanes {
		r.lanes[i] = backing[i*probeLaneSize : i*probeLaneSize : (i+1)*probeLaneSize]
	}
	return r
}

func (r *probeRing) push(pkt []byte) {
	r.lanes[r.n] = append(r.lanes[r.n][:0], pkt...)
	r.pkts[r.n] = r.lanes[r.n]
	r.n++
}

func (r *probeRing) full() bool { return r.n == len(r.lanes) }

// sendBatch is the batched counterpart of send: worker w walks its
// streams exactly as the per-packet loop does — same pacing budget,
// same resume skips, same cancellation poll — but probes accumulate in
// the ring and leave in SendBatch flushes.
func (e *engine) sendBatch(ctx context.Context, w int, bt BatchTransport) {
	cfg := &e.cfg
	var pc *pacer
	if cfg.Rate > 0 {
		pc = newPacerInterval(time.Second * time.Duration(cfg.Workers) / time.Duration(cfg.Rate))
	} else {
		pc = newPacer(0)
	}
	prober := cfg.Module.NewProber(cfg, w)
	ring := newProbeRing(cfg.Batch)
	var rm WorkerMark
	if cfg.Resume != nil {
		rm = cfg.Resume.Marks[w]
	}
	for attempt := 0; attempt < cfg.ProbesPerTarget; attempt++ {
		if attempt < rm.Attempt {
			continue
		}
		var skip uint64
		if attempt == rm.Attempt {
			skip = rm.Done
		}
		st, err := e.src.Stream(cfg, w)
		if err != nil {
			e.fail(err)
			return
		}
		err = e.sendBatchPass(ctx, w, bt, st, prober, ring, pc, attempt, skip)
		closeStream(st)
		if err != nil {
			switch {
			case err == ctx.Err():
				e.setErr(err)
			case e.quarantine:
				e.quarantineWorker(w, err)
			default:
				e.fail(err)
			}
			return
		}
		if e.prog != nil {
			e.prog.mark(w, attempt+1, 0)
		}
	}
}

// sendBatchPass runs one attempt's stream through the ring. Progress
// marks advance only at flush boundaries — every consumed position up
// to a mark was either resume-skipped or handed to the transport, so a
// checkpoint still never claims unsent work; probes ringed but unsent
// at cancellation are simply re-probed by a resume.
func (e *engine) sendBatchPass(ctx context.Context, w int, bt BatchTransport, st Stream, prober Prober, ring *probeRing, pc *pacer, attempt int, skip uint64) error {
	poll := 0
	var consumed uint64
	done := ctx.Done()
	ws := &e.stats[w]
	flush := func() error {
		n := ring.n
		if n == 0 {
			return nil
		}
		// Pace before sending: each batch waits for its own slot, so a
		// scan opens with one batch per worker, the burst Rate allows.
		pc.waitN(n)
		err := e.sendBatchRetry(ctx, bt, ring.pkts[:n])
		ring.n = 0
		if err != nil {
			return err
		}
		ws.sent.Add(uint64(n))
		if e.prog != nil {
			e.prog.mark(w, attempt, consumed)
		}
		return nil
	}
	for {
		target, pos, ok := st.Next()
		if !ok {
			break
		}
		if poll--; poll < 0 {
			poll = 63
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if consumed++; consumed <= skip {
			continue
		}
		ring.push(prober.MakeProbe(target, pos, attempt))
		if ring.full() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// sendBatchRetry is sendRetry for a batch: partial progress is kept (a
// transport reports how many packets went out before the error) and the
// retry budget covers the batch's remainder as a whole.
func (e *engine) sendBatchRetry(ctx context.Context, bt BatchTransport, pkts [][]byte) error {
	n, err := bt.SendBatch(pkts)
	if err == nil || n >= len(pkts) {
		return nil
	}
	if e.retry == nil || !Transient(err) {
		return err
	}
	// Jitter keyed by the first unsent probe's content, matching the
	// per-packet path's probe-content keying.
	h := foldBytes(e.cfg.Seed, pkts[n])
	for try := 1; try <= e.retry.Attempts; try++ {
		t := time.NewTimer(e.retry.backoff(h, try))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		var m int
		m, err = bt.SendBatch(pkts[n:])
		if n += m; err == nil || n >= len(pkts) {
			return nil
		}
		if !Transient(err) {
			return err
		}
	}
	return fmt.Errorf("zmap: %d retries exhausted: %w", e.retry.Attempts, err)
}

// receiveBatch drains worker w's transport in RecvBatch strides until
// it is closed, delivering each packet exactly as receive does.
func (e *engine) receiveBatch(w int, bt BatchTransport) {
	batch := e.cfg.Batch
	// Simulated responses are bounded well under 2 KiB (the ICMPv6
	// error path quotes at most 1224 bytes), so flat per-lane buffers
	// replace the per-packet loop's single 64 KiB scratch.
	const laneSize = 2048
	backing := make([]byte, batch*laneSize)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = backing[i*laneSize : (i+1)*laneSize]
	}
	sizes := make([]int, batch)
	ws := &e.stats[w]
	var pkt icmp6.Packet
	for {
		n, err := bt.RecvBatch(bufs, sizes)
		ws.received.Add(uint64(n))
		for i := 0; i < n; i++ {
			e.deliver(w, &pkt, bufs[i][:sizes[i]])
		}
		if err != nil {
			if Transient(err) {
				continue
			}
			if err != io.EOF {
				ws.invalid.Add(1)
			}
			return
		}
	}
}

// deliver parses one inbound packet (generic IPv6+ICMPv6 with checksum
// verification — most probe types' responses arrive as ICMPv6) and
// hands it to the module for validation before invoking the handler.
// Packets carrying another upper-layer protocol (a TCP RST/ACK) go to
// the module's optional RawValidator instead.
func (e *engine) deliver(w int, pkt *icmp6.Packet, b []byte) {
	var res Result
	ok := false
	if err := pkt.Unmarshal(b); err == nil {
		res, ok = e.cfg.Module.Validate(&e.cfg, pkt)
	} else if err == icmp6.ErrNotICMPv6 && e.raw != nil {
		res, ok = e.raw.ValidateRaw(&e.cfg, b)
	}
	if !ok {
		e.stats[w].invalid.Add(1)
		return
	}
	e.stats[w].matched.Add(1)
	if e.handler != nil {
		res.Worker = w
		e.handler(res)
	}
}

// sharedTransport adapts one caller-owned transport to the per-worker
// factory shape: every worker gets a handle on the same transport, and
// the underlying Close runs once, after the last handle closes.
type sharedTransport struct {
	tr   Transport
	refs atomic.Int32
}

func (s *sharedTransport) ref() Transport {
	s.refs.Add(1)
	// Only advertise the fast paths the underlying transport actually
	// has. When both exist the Exchanger wins: per-packet scans take
	// the synchronous path, and a Batch > 1 scan wraps the ref in the
	// loop adapter regardless.
	if ex, ok := s.tr.(Exchanger); ok {
		return &sharedExchRef{sharedRef{s}, ex}
	}
	if bt, ok := s.tr.(BatchTransport); ok {
		return &sharedBatchRef{sharedRef{s}, bt}
	}
	return &sharedRef{s}
}

type sharedRef struct{ s *sharedTransport }

func (r *sharedRef) Send(pkt []byte) error        { return r.s.tr.Send(pkt) }
func (r *sharedRef) Recv(buf []byte) (int, error) { return r.s.tr.Recv(buf) }

func (r *sharedRef) Close() error {
	if r.s.refs.Add(-1) == 0 {
		return r.s.tr.Close()
	}
	return nil
}

type sharedExchRef struct {
	sharedRef
	ex Exchanger
}

func (r *sharedExchRef) Exchange(pkt, buf []byte) ([]byte, bool) {
	return r.ex.Exchange(pkt, buf)
}

type sharedBatchRef struct {
	sharedRef
	bt BatchTransport
}

func (r *sharedBatchRef) SendBatch(pkts [][]byte) (int, error) { return r.bt.SendBatch(pkts) }

func (r *sharedBatchRef) RecvBatch(bufs [][]byte, sizes []int) (int, error) {
	return r.bt.RecvBatch(bufs, sizes)
}

// pacer is a simple token-bucket rate limiter over real time.
type pacer struct {
	interval time.Duration
	next     time.Time
}

func newPacer(rate int) *pacer {
	if rate <= 0 {
		return &pacer{}
	}
	return newPacerInterval(time.Second / time.Duration(rate))
}

func newPacerInterval(interval time.Duration) *pacer {
	return &pacer{interval: interval, next: time.Now()}
}

func (p *pacer) wait() {
	if p.interval == 0 {
		return
	}
	now := time.Now()
	if p.next.After(now) {
		time.Sleep(p.next.Sub(now))
	}
	p.next = p.next.Add(p.interval)
}

// waitN is wait for a batch of n probes: sleep until the current slot
// opens, then advance the schedule n intervals, so the aggregate rate
// matches n single waits while sleeping at most once per batch.
func (p *pacer) waitN(n int) {
	if p.interval == 0 || n <= 0 {
		return
	}
	now := time.Now()
	if p.next.After(now) {
		time.Sleep(p.next.Sub(now))
	}
	p.next = p.next.Add(time.Duration(n) * p.interval)
}
