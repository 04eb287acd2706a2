package core_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// runDiscovery builds a fresh world (fresh clock, fresh rate state) and
// runs the full §4 pipeline with the given worker count.
func runDiscovery(t *testing.T, workers int) *core.DiscoveryResult {
	t.Helper()
	return runDiscoveryOver(t, workers, 0, 16, ownLoopback)
}

// ownLoopback gives every scan worker a loopback of its own, whose
// Exchange takes the synchronous path.
func ownLoopback(w *simnet.World) func() (zmap.Transport, error) {
	return func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }
}

// runDiscoveryOver is runDiscovery with the scan batch size, the
// stage-1 probes per /48 and the transport factory, built over the
// fresh world, given.
func runDiscoveryOver(t *testing.T, workers, batch, probesPer48 int, transport func(*simnet.World) func() (zmap.Transport, error)) *core.DiscoveryResult {
	t.Helper()
	w := simnet.TestWorld(103)
	scanner := &zmap.Scanner{
		NewTransport: transport(w),
		Config:       zmap.Config{Source: vantage, Seed: 0xfee1, Workers: workers, Batch: batch},
	}
	p := &core.Pipeline{
		Scanner:     scanner,
		RIB:         w.RIB(),
		Wait:        w.Clock().Advance,
		Salt:        5,
		ProbesPer48: probesPer48,
	}
	seeds := []ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:10::/48"),
		ip6.MustParsePrefix("2001:db9:30::/48"),
	}
	res, err := p.Run(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineWorkerCountInvariance is the end-to-end determinism proof
// the parallel engine promises: the same seed produces an identical
// DiscoveryResult whether the scans run on one worker or eight.
func TestPipelineWorkerCountInvariance(t *testing.T) {
	base := runDiscovery(t, 1)
	if len(base.Rotating48s) == 0 {
		t.Fatal("baseline pipeline found no rotating /48s; the comparison would be vacuous")
	}
	for _, workers := range []int{2, 8} {
		got := runDiscovery(t, workers)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: DiscoveryResult differs from workers=1:\nbase %+v\n got %+v", workers, base, got)
		}
	}
}

// sharedQueue hands every worker of a scan one loopback queue with the
// loopback's Exchange hidden, so each scan takes the asynchronous
// sender/receiver path and a response reaches whichever worker's
// receiver reads it first: Result.Worker is the receiver, not the
// sender. The queue closes when the scan's last worker closes its
// handle; the next scan opens a fresh one.
type sharedQueue struct {
	w    *simnet.World
	mu   sync.Mutex
	lb   *zmap.Loopback
	refs int
}

func (q *sharedQueue) open() (zmap.Transport, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.refs == 0 {
		q.lb = zmap.NewLoopback(q.w, 0)
	}
	q.refs++
	return &queueHandle{q.lb, q}, nil
}

// queueHandle embeds the loopback as a zmap.Transport, so only Send,
// Recv and Close are promoted: the engine sees no Exchanger.
type queueHandle struct {
	zmap.Transport
	q *sharedQueue
}

func (h *queueHandle) Close() error {
	h.q.mu.Lock()
	defer h.q.mu.Unlock()
	if h.q.refs--; h.q.refs == 0 {
		return h.Transport.Close()
	}
	return nil
}

// TestPipelineWorkerCountInvarianceAsync is the worker-count oracle on
// the asynchronous path, per packet and batched: workers share one
// response queue, so handlers see other workers' responses under their
// own Result.Worker. Every run must equal the synchronous one-worker
// loopback run. Two stage-1 probes per /48 instead of 16 keep the six
// runs affordable under -race; stage 3, which the sharing stresses, is
// full size either way.
func TestPipelineWorkerCountInvarianceAsync(t *testing.T) {
	const probesPer48 = 2
	base := runDiscoveryOver(t, 1, 0, probesPer48, ownLoopback)
	if len(base.Rotating48s) == 0 {
		t.Fatal("baseline pipeline found no rotating /48s; the comparison would be vacuous")
	}
	shared := func(w *simnet.World) func() (zmap.Transport, error) {
		return (&sharedQueue{w: w}).open
	}
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{0, 64} {
			got := runDiscoveryOver(t, workers, batch, probesPer48, shared)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("workers=%d batch=%d async: DiscoveryResult differs from the loopback workers=1 run:\nbase %+v\n got %+v",
					workers, batch, base, got)
			}
		}
	}
}
