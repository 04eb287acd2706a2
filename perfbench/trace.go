package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// Sampling periods for per-call spans. A time.Now pair costs about as
// much as a simulator answer on a virtual machine, so timing every
// Exchange would distort the discovery workload; one call in
// exchangeEvery is timed. Batch calls carry up to 64 packets each and
// are cheap to sample more densely.
const (
	exchangeEvery = 64
	batchEvery    = 4
	// captureEvery keeps one sampled exchange in this many as a replay
	// probe, so one pipeline run's sample spans all three stages.
	captureEvery = 8
	// maxSpans and maxCaptures bound what one traced run holds in memory.
	maxSpans    = 1 << 16
	maxCaptures = 1 << 13
)

// span is one timed call at a layer boundary. Spans of one request (a
// pipeline run, a sweep, a serve iteration) share Req; Parent is the
// span that caused this one, 0 at the root.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Req    uint32 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
	N      int    `json:"n,omitempty"` // what the span counted: packets, calls, probes, records or the day
}

// capture is one probe copied off the hot path, with the virtual time
// it was sent at, for the per-layer replays after the traced phase.
type capture struct {
	pkt []byte
	at  time.Time
}

// tracer keeps every span in memory; the spans are written out once,
// when the run ends. Hot-path wrappers buffer their spans locally and
// merge them on Close, so a sampled call takes no lock.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint32
	req    atomic.Uint32

	mu       sync.Mutex
	spans    []span // at most maxSpans; later ones are not kept
	captures []capture
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; finish closes and keeps it.
func (t *tracer) begin(name string, parent uint32) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Req: t.req.Load(), Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) finish(s span, n int) {
	s.Dur = int64(time.Since(t.t0)) - s.Start
	s.N = n
	t.merge([]span{s}, nil)
}

// clockNs is the cost of the time.Now pair that brackets a sampled
// call, measured back to back. Span means subtract it, so a per-call
// figure reports the call and not the clock reads around it (on some
// virtual machines the pair costs more than a simulator answer).
func clockNs() float64 {
	const n = 1 << 14
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		_ = time.Since(s)
	}
	return float64(time.Since(start)) / n
}

// callNs is the mean duration of the named spans net of the clock
// reads, with a note describing the sample.
func (t *tracer) callNs(name string, every int) (ns float64, packets int, note string) {
	d, packets := t.durations(name)
	c := clockNs()
	return d.mean() - c, packets, fmt.Sprintf("sampled 1 in %d calls, mean net of %.0f ns clock reads; %s", every, c, d.summary("ns"))
}

// newRequest starts the next request: later spans carry its id.
func (t *tracer) newRequest() uint32 { return t.req.Add(1) }

func (t *tracer) merge(spans []span, caps []capture) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if room := maxSpans - len(t.spans); room < len(spans) {
		spans = spans[:room]
	}
	t.spans = append(t.spans, spans...)
	if room := maxCaptures - len(t.captures); room < len(caps) {
		caps = caps[:room]
	}
	t.captures = append(t.captures, caps...)
}

// durations returns the durations of every kept span with this name.
func (t *tracer) durations(name string) (d dist, packets int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.Dur))
			packets += s.N
		}
	}
	return d, packets
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// local is a wrapper's private span and capture buffer for one scan
// pass: opened with a pass span, written only by the sending goroutine,
// and merged into the tracer on Close — which the engine calls after
// every sender has returned.
type local struct {
	t     *tracer
	pass  span
	n     uint64 // calls seen, for sampling
	spans []span
	caps  []capture
}

func (t *tracer) local(name string) local {
	return local{t: t, pass: t.begin(name, 0)}
}

func (l *local) span(name string, start time.Time, n int) span {
	return span{
		ID: l.t.nextID.Add(1), Parent: l.pass.ID, Req: l.pass.Req, Name: name,
		Start: int64(start.Sub(l.t.t0)), Dur: int64(time.Since(start)), N: n,
	}
}

func (l *local) capture(pkt []byte, at time.Time) {
	if len(l.caps) < maxCaptures {
		l.caps = append(l.caps, capture{pkt: append([]byte(nil), pkt...), at: at})
	}
}

func (l *local) close() {
	l.t.merge(l.spans, l.caps)
	l.t.finish(l.pass, int(l.n))
}

// tracedLoopback wraps the in-process loopback. It forwards exactly
// the optional interface the engine detects on it — Exchanger — so the
// traced scan takes the same synchronous path as the untraced one.
type tracedLoopback struct {
	lb    *zmap.Loopback
	clock *simnet.Clock
	l     local
}

var _ zmap.Exchanger = (*tracedLoopback)(nil)

func (t *tracer) loopback(w *simnet.World) *tracedLoopback {
	return &tracedLoopback{lb: zmap.NewLoopback(w, 0), clock: w.Clock(), l: t.local("zmap.scan.pass")}
}

func (x *tracedLoopback) Send(pkt []byte) error        { return x.lb.Send(pkt) }
func (x *tracedLoopback) Recv(buf []byte) (int, error) { return x.lb.Recv(buf) }

func (x *tracedLoopback) Close() error {
	x.l.close()
	return x.lb.Close()
}

func (x *tracedLoopback) Exchange(pkt, buf []byte) ([]byte, bool) {
	x.l.n++
	if x.l.n%exchangeEvery != 0 {
		return x.lb.Exchange(pkt, buf)
	}
	start := time.Now()
	resp, ok := x.lb.Exchange(pkt, buf)
	x.l.spans = append(x.l.spans, x.l.span("zmap.loopback.exchange", start, 1))
	if x.l.n%(exchangeEvery*captureEvery) == 0 {
		x.l.capture(pkt, x.clock.Now())
	}
	return resp, ok
}

// tracedUDP wraps the wire transport and forwards exactly the optional
// interface the engine detects on it — BatchTransport — so a Batch > 1
// scan keeps its vectored path instead of the batch-over-single adapter.
type tracedUDP struct {
	u     *zmap.UDP
	clock *simnet.Clock
	l     local  // sender side
	rn    uint64 // receive calls seen; the receiving goroutine's own
}

var _ zmap.BatchTransport = (*tracedUDP)(nil)

// udpFactory dials one traced socket per worker.
func (t *tracer) udpFactory(addr string, clock *simnet.Clock) zmap.TransportFactory {
	return func(int) (zmap.Transport, error) {
		u, err := zmap.DialUDP(addr)
		if err != nil {
			return nil, err
		}
		return &tracedUDP{u: u, clock: clock, l: t.local("zmap.scan.pass")}, nil
	}
}

func (x *tracedUDP) Send(pkt []byte) error        { return x.u.Send(pkt) }
func (x *tracedUDP) Recv(buf []byte) (int, error) { return x.u.Recv(buf) }

func (x *tracedUDP) Close() error {
	x.l.close()
	return x.u.Close()
}

func (x *tracedUDP) SendBatch(pkts [][]byte) (int, error) {
	x.l.n++
	if x.l.n%batchEvery != 0 {
		return x.u.SendBatch(pkts)
	}
	start := time.Now()
	n, err := x.u.SendBatch(pkts)
	x.l.spans = append(x.l.spans, x.l.span("zmap.udp.send_batch", start, n))
	if len(pkts) > 0 {
		x.l.capture(pkts[0], x.clock.Now())
	}
	return n, err
}

// RecvBatch spans include the time blocked waiting for a packet: on a
// paced scan most of a receive call is waiting, not work. The receiver
// outlives Close, so its spans go straight to the tracer.
func (x *tracedUDP) RecvBatch(bufs [][]byte, sizes []int) (int, error) {
	x.rn++
	if x.rn%batchEvery != 0 {
		return x.u.RecvBatch(bufs, sizes)
	}
	start := time.Now()
	n, err := x.u.RecvBatch(bufs, sizes)
	x.l.t.merge([]span{x.l.span("zmap.udp.recv_batch", start, n)}, nil)
	return n, err
}
