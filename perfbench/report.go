package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric of the catalog BENCHMARK.json declares.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints, on every
// workload. Each workload defines its operation; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"cpu_ns_per_op", "ns"},
	{"alloc_bytes_per_op", "B"},
}

// perLayer are the metrics every traced run prints. A layer the
// workload does not reach reads 0 and is marked so in the report.
var perLayer = []metricDef{
	{"zmap.targets.ns", "ns"},
	{"zmap.prober.ns", "ns"},
	{"zmap.prober.allocs", "count"},
	{"simnet.handle.ns", "ns"},
	{"simnet.handle.allocs", "count"},
	{"simnet.answer_ratio", "ratio"},
	{"zmap.loopback.exchange_ns", "ns"},
	{"icmp6.parse.ns", "ns"},
	{"zmap.validate.ns", "ns"},
	{"zmap.engine.self_ns", "ns"},
	{"zmap.engine.speedup_2w", "x"},
	{"core.pipeline.stage1_s", "s"},
	{"core.pipeline.stage2_s", "s"},
	{"core.pipeline.stage3_s", "s"},
	{"zmap.udp.send_batch_ns", "ns"},
	{"zmap.udp.send_batch_len", "count"},
	{"zmap.udp.recv_batch_ns", "ns"},
	{"zmap.udp.recv_batch_len", "count"},
	{"zmap.udp.loss", "ratio"},
	{"zmap.udp.loss.250kpps", "ratio"},
	{"zmap.udp.loss.500kpps", "ratio"},
	{"zmap.udp.loss.1mpps", "ratio"},
	{"zmap.udp.loss.2mpps", "ratio"},
	{"zmap.udp.loss.4mpps", "ratio"},
	{"zmap.udp.max_pps", "1/s"},
	{"zmap.scan.send_s", "s"},
	{"zmap.scan.invalid_ratio", "ratio"},
	{"scentd.record_ns", "ns"},
	{"scentd.commit_ms.p50", "ms"},
	{"scentd.commit_ms.early", "ms"},
	{"scentd.commit_ms.late", "ms"},
	{"scentd.journal_bytes_per_day", "B"},
	{"scentd.query_p50_us", "us"},
	{"scentd.query_tail_us", "us"},
	{"scentd.queries_per_s", "1/s"},
	{"scentd.ingest_obs_per_s", "1/s"},
	{"core.snapshot.ms", "ms"},
	{"core.snapshot.alloc_mb", "MB"},
	{"scentd.answer_us.lookup", "us"},
	{"scentd.answer_us.prefixes", "us"},
	{"scentd.answer_us.stats", "us"},
	{"scentd.answer_us.vendors", "us"},
	{"scentd.answer_us.vendors_pool", "us"},
	{"scentd.answer_us.pools", "us"},
	{"wire.frame_us", "us"},
	{"wire.frame_bytes", "B"},
	{"scentd.rtt_overhead_us", "us"},
	{"bench.trace_overhead", "ratio"},
}

// report is one run's outcome: the oracle verdict, the attempt and
// failure counts, and the measured metrics with a note each.
type report struct {
	correct   bool
	attempted uint64
	failed    uint64
	values    map[string]float64
	notes     map[string]string
	// mismatch describes the first oracle disagreement, if any.
	mismatch string
}

func newReport() *report {
	return &report{correct: true, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail records one failed operation; the first description is kept.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations.
func (r *report) failN(n uint64, format string, args ...any) {
	r.failed += n
	r.correct = false
	if r.mismatch == "" {
		r.mismatch = fmt.Sprintf(format, args...)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints one line per catalog metric and then the result object
// as the last line. Every end-to-end metric must have been measured;
// an unreached per-layer metric reads 0.
func (r *report) write(w io.Writer, catalog []metricDef, requireAll bool) error {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range catalog {
		v, ok := r.values[m.name]
		note := r.notes[m.name]
		if !ok {
			if requireAll {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			note = "not reached by this workload"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-32s %14.6g %-5s  %s\n", m.name, v, m.unit, note)
	}
	for name := range r.values {
		if !inCatalog(endToEnd, name) && !inCatalog(perLayer, name) {
			return fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	if r.mismatch != "" {
		fmt.Fprintf(w, "oracle mismatch (%d of %d failed): %s\n", r.failed, r.attempted, r.mismatch)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func inCatalog(catalog []metricDef, name string) bool {
	for _, m := range catalog {
		if m.name == name {
			return true
		}
	}
	return false
}
