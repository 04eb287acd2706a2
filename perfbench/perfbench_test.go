package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// runBench runs the command line in-process and returns its exit code,
// the result object of its last line and the whole output.
func runBench(t *testing.T, args ...string) (int, jsonResult, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--workdir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if code != 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result object: %v\n%s", err, out.String())
		}
	}
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return code, res, out.String()
}

// TestSmoke runs every workload at the smallest scale the command line
// allows, untraced and traced, and checks the result object carries
// exactly the catalog's metrics with a correct verdict.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("each workload builds its world and oracle")
	}
	for _, wl := range []string{"discovery", "wire", "serve"} {
		// One set-up per run is enough to check the output.
		saved := workloads[wl]
		one := saved
		one.setups = 1
		workloads[wl] = one
		t.Cleanup(func() { workloads[wl] = saved })
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				code, res, out := runBench(t, "--workload", wl, "--seed", "7", "--seconds", "0.01", "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, correct=%v attempted=%d failed=%d\n%s", code, res.Correct, res.Attempted, res.Failed, out)
				}
				catalog := endToEnd
				if trace == "1" {
					catalog = perLayer
				}
				if len(res.Metrics) != len(catalog) {
					t.Errorf("%d metrics, catalog has %d", len(res.Metrics), len(catalog))
				}
				for _, m := range catalog {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wire", "--trace", "2"},
		{"--workload", "wire", "--seconds", "0"},
	} {
		if code, _, out := runBench(t, args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, out)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the program and BENCHMARK.json
// in step: same workloads, same metrics, same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for wl := range workloads {
		if !slices.Contains(names, wl) {
			t.Errorf("workload %s is not in BENCHMARK.json", wl)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// scanStats is a scan's Stats minus its wall-clock send time.
func scanStats(st zmap.Stats) [4]uint64 {
	return [4]uint64{st.Sent, st.Received, st.Matched, st.Invalid}
}

func collect(ctx context.Context, t *testing.T, factory zmap.TransportFactory, ts zmap.TargetSet, cfg zmap.Config) ([]resultKey, zmap.Stats) {
	t.Helper()
	var got []resultKey
	st, err := zmap.ScanWorkers(ctx, factory, ts, cfg, func(r zmap.Result) {
		got = append(got, resultKey{r.Target, r.From, r.Type, r.Code, r.Seq})
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, cmpResult)
	return got, st
}

// passCalls sums what the traced transports counted: the calls their
// fast-path method saw over every scan pass.
func passCalls(tr *tracer) (calls int) {
	for _, s := range tr.spans {
		if s.Name == "zmap.scan.pass" {
			calls += s.N
		}
	}
	return calls
}

// TestTracedLoopbackSamePath proves the traced loopback leaves the scan
// unchanged: equal Stats and result sets, and every probe went through
// the wrapper's Exchange — the engine's synchronous path.
func TestTracedLoopbackSamePath(t *testing.T) {
	ctx := context.Background()
	w := simnet.TestWorld(3)
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{ip6.MustParsePrefix("2001:db8:10::/48")}, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := zmap.Config{Source: experiments.Vantage, Seed: 11, Workers: 2}
	want, wantSt := collect(ctx, t, func(int) (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }, ts, cfg)
	tr := newTracer()
	got, gotSt := collect(ctx, t, func(int) (zmap.Transport, error) { return tr.loopback(w), nil }, ts, cfg)
	if scanStats(gotSt) != scanStats(wantSt) {
		t.Errorf("traced stats %+v, untraced %+v", gotSt, wantSt)
	}
	if !slices.Equal(got, want) {
		t.Errorf("traced scan found %d results, untraced %d, or they differ", len(got), len(want))
	}
	if calls := passCalls(tr); uint64(calls) != gotSt.Sent {
		t.Errorf("the wrapper's Exchange saw %d calls for %d probes: the engine left the synchronous path", calls, gotSt.Sent)
	}
	if ex, _ := tr.durations("zmap.loopback.exchange"); len(ex) == 0 {
		t.Error("no Exchange spans were sampled")
	}
}

// TestTracedUDPSamePath proves the traced UDP transport keeps the
// batched path: equal Stats and result sets, and every probe left
// through the wrapper's SendBatch in full batches. It sweeps one /48 at
// a rate the server keeps up with under the race detector too.
func TestTracedUDPSamePath(t *testing.T) {
	ctx := context.Background()
	f, err := newWire(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.close(); err != nil {
			t.Error(err)
		}
	}()
	if f.ts, err = zmap.NewSubnetTargets([]ip6.Prefix{ip6.MustParsePrefix("2001:db8:10::/48")}, 64, 9); err != nil {
		t.Fatal(err)
	}
	f.cfg.Rate = 50_000
	oracle := f.cfg
	oracle.Batch, oracle.Rate, oracle.Cooldown = 0, 0, 0
	lb := zmap.NewLoopback(f.world, 0)
	want, _, err := f.sweep(ctx, func(int) (zmap.Transport, error) { return lb, nil }, oracle)
	if err != nil {
		t.Fatal(err)
	}
	f.want = slices.Clone(want)
	plain, plainSt, err := f.sweep(ctx, zmap.UDPFactory(f.addr), f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	untraced := slices.Clone(plain)
	tr := newTracer()
	got, gotSt, err := f.sweep(ctx, tr.udpFactory(f.addr, f.world.Clock()), f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scanStats(gotSt) != scanStats(plainSt) {
		t.Errorf("traced stats %+v, untraced %+v", gotSt, plainSt)
	}
	if !slices.Equal(got, untraced) || !slices.Equal(got, f.want) {
		t.Errorf("result sets differ: traced %d, untraced %d, loopback oracle %d", len(got), len(untraced), len(f.want))
	}
	batches := (gotSt.Sent + wireBatch - 1) / wireBatch
	if calls := passCalls(tr); uint64(calls) != batches {
		t.Errorf("the wrapper's SendBatch saw %d calls for %d probes: the engine left the batched path", calls, gotSt.Sent)
	}
	if rb, _ := tr.durations("zmap.udp.recv_batch"); len(rb) == 0 {
		t.Error("no RecvBatch spans were sampled")
	}
}

func TestDiffResults(t *testing.T) {
	a := ip6.MustParseAddr("2001:db8::1")
	b := ip6.MustParseAddr("2001:db8::2")
	c := ip6.MustParseAddr("2001:db8::3")
	want := []resultKey{{target: a}, {target: b}}
	for _, tc := range []struct {
		got            []resultKey
		missing, extra int
	}{
		{want, 0, 0},
		{[]resultKey{{target: a}}, 1, 0},
		{[]resultKey{{target: a}, {target: b}, {target: c}}, 0, 1},
		{[]resultKey{{target: a}, {target: b, seq: 1}}, 1, 1},
		{nil, 2, 0},
	} {
		if m, e := diffResults(tc.got, want); m != tc.missing || e != tc.extra {
			t.Errorf("diff(%v): missing %d extra %d, want %d %d", tc.got, m, e, tc.missing, tc.extra)
		}
	}
}

func TestDistTail(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	if q, v, ok := d.tail(); !ok || q != 0.9 || v != 90 {
		t.Errorf("100 samples: tail p%v = %v (%v), want p90 = 90", q*100, v, ok)
	}
	if _, _, ok := d[:19].tail(); ok {
		t.Error("19 samples support no tail percentile")
	}
	if m := d.median(); m != 50 {
		t.Errorf("median %v, want 50", m)
	}
}
