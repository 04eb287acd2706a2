package main

import (
	"fmt"
	"sort"
	"time"

	"followscent/internal/experiments"
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// replayCalls is about how many calls each per-probe layer replay
// times: enough to cover timer resolution and scheduler noise on every
// layer, small enough to keep a traced run well inside its time limit.
const replayCalls = 1 << 18

// probeLayers are the per-probe layer costs of one workload, each
// measured in its own loop over the workload's own inputs.
type probeLayers struct {
	targetsNs              float64
	proberNs, proberAllocs float64
	handleNs, handleAllocs float64
	answerRatio            float64
	parseNs, validateNs    float64
}

// set adds the layer metrics to a report.
func (p probeLayers) set(r *report, samples int) {
	note := fmt.Sprintf("replayed over %d captured probes", samples)
	r.set("zmap.targets.ns", p.targetsNs, "SubnetTargets.At over the workload's target set")
	r.set("zmap.prober.ns", p.proberNs, note)
	r.set("zmap.prober.allocs", p.proberAllocs, note)
	r.set("simnet.handle.ns", p.handleNs, note)
	r.set("simnet.handle.allocs", p.handleAllocs, note)
	r.set("simnet.answer_ratio", p.answerRatio, note)
	r.set("icmp6.parse.ns", p.parseNs, note+", answered probes only")
	r.set("zmap.validate.ns", p.validateNs, note+", answered probes only")
}

// timeLoop runs f over n items, repeating the pass until about
// replayCalls calls were made, and returns ns and heap objects per call.
func timeLoop(n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	reps := replayCalls / n
	if reps < 1 {
		reps = 1
	}
	m0 := mallocs()
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	el := time.Since(start)
	calls := float64(reps * n)
	return float64(el) / calls, float64(mallocs()-m0) / calls
}

// measureProbeLayers replays the captured probes layer by layer: the
// captured destinations are rebuilt by a prober with a known scan
// configuration, answered by the simulator at the virtual time each
// was sent, and the answers parsed and validated. Rebuilding the probes
// is what lets validation run its accepting path: the workload's own
// per-pass seeds are internal to the pipeline. The world's clock is
// left at Epoch.
func measureProbeLayers(w *simnet.World, ts zmap.TargetSet, caps []capture) probeLayers {
	var p probeLayers
	tsLen := ts.Len()
	// A large odd stride visits the set in a scattered order, as the
	// engine's cyclic permutation does.
	const stride = 0x9e3779b97f4a7c15 | 1
	var sink ip6.Addr
	p.targetsNs, _ = timeLoop(replayCalls, func(i int) {
		sink = ts.At((uint64(i) * stride) % tsLen)
	})
	_ = sink

	sort.SliceStable(caps, func(i, j int) bool { return caps[i].at.Before(caps[j].at) })
	targets := make([]ip6.Addr, 0, len(caps))
	ats := make([]time.Time, 0, len(caps))
	for _, c := range caps {
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(c.pkt); err == nil {
			targets = append(targets, pkt.Header.Dst)
			ats = append(ats, c.at)
		}
	}
	cfg := zmap.Config{Source: experiments.Vantage, Seed: 0x7e57, HopLimit: 64}
	prober := zmap.EchoModule{}.NewProber(&cfg, 0)
	p.proberNs, p.proberAllocs = timeLoop(len(targets), func(i int) {
		prober.MakeProbe(targets[i], 0, 0)
	})
	probes := make([][]byte, len(targets))
	for i, t := range targets {
		probes[i] = append([]byte(nil), prober.MakeProbe(t, 0, 0)...)
	}

	// The simulator answers by virtual time, so each run of equal
	// capture times is replayed at its own instant.
	clock := w.Clock()
	defer clock.Set(simnet.Epoch)
	var resps [][]byte
	buf := make([]byte, 0, 2048)
	var handleNs, handleAllocs float64
	for lo := 0; lo < len(probes); {
		hi := lo
		for hi < len(probes) && ats[hi].Equal(ats[lo]) {
			hi++
		}
		clock.Set(ats[lo])
		group := probes[lo:hi]
		ns, allocs := timeLoop(len(group), func(i int) {
			buf, _ = w.HandlePacket(group[i], buf[:0])
		})
		share := float64(len(group)) / float64(len(probes))
		handleNs += ns * share
		handleAllocs += allocs * share
		for _, pr := range group {
			if resp, ok := w.HandlePacket(pr, buf[:0]); ok {
				resps = append(resps, append([]byte(nil), resp...))
			}
		}
		lo = hi
	}
	p.handleNs, p.handleAllocs = handleNs, handleAllocs
	if len(probes) > 0 {
		p.answerRatio = float64(len(resps)) / float64(len(probes))
	}

	pkts := make([]icmp6.Packet, len(resps))
	p.parseNs, _ = timeLoop(len(resps), func(i int) {
		_ = pkts[i].Unmarshal(resps[i]) // simulator output always parses
	})
	mod := zmap.EchoModule{}
	p.validateNs, _ = timeLoop(len(pkts), func(i int) {
		mod.Validate(&cfg, &pkts[i])
	})
	return p
}
