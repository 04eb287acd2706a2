package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process-wide costs the
// end-to-end metrics are normalized by.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user+sys CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSample)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// cost holds one sample per iteration of a run — a pipeline run, a
// sweep, a serve replay — with the operations it did. The end-to-end
// metrics are medians over iterations, which a stall of the machine
// moves less than a run-wide total. Verification and bookkeeping
// between iterations are not charged.
type cost struct {
	ops   uint64
	wall  time.Duration
	rate  dist // operations per second
	cpu   dist // ns of process CPU per operation
	alloc dist // heap bytes per operation
	rss   dist // peak resident set in MB
}

// startSample opens an iteration's sample and its peak-RSS window.
func startSample() usage {
	resetPeakRSS()
	return readUsage()
}

// add closes an iteration's sample.
func (c *cost) add(from usage, ops uint64) {
	to := readUsage()
	n, wall := float64(ops), to.wall.Sub(from.wall)
	c.ops += ops
	c.wall += wall
	c.rate = append(c.rate, n/wall.Seconds())
	c.cpu = append(c.cpu, float64(to.cpu-from.cpu)/n)
	c.alloc = append(c.alloc, float64(to.alloc-from.alloc)/n)
	c.rss = append(c.rss, peakRSSMB())
}

func (c *cost) merge(o cost) {
	c.ops += o.ops
	c.wall += o.wall
	c.rate = append(c.rate, o.rate...)
	c.cpu = append(c.cpu, o.cpu...)
	c.alloc = append(c.alloc, o.alloc...)
	c.rss = append(c.rss, o.rss...)
}

// resetPeakRSS starts a new peak-RSS window, so max_rss_mb covers one
// iteration and not the oracle runs of set-up. Where the kernel does
// not support the reset, the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since resetPeakRSS, read from
// the kernel's high-water mark.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setOpCosts sets the throughput, per-operation cost and memory
// metrics, each the median over the run's iterations.
func setOpCosts(r *report, c cost, op, how string) {
	r.set("ops_per_s", c.rate.median(), fmt.Sprintf("%ss %s; %s; %d in %.2fs", op, how, c.rate.summary("/s"), c.ops, c.wall.Seconds()))
	r.set("cpu_ns_per_op", c.cpu.median(), "process user+sys CPU per "+op+"; "+c.cpu.summary("ns"))
	r.set("alloc_bytes_per_op", c.alloc.median(), "heap bytes allocated per "+op+"; "+c.alloc.summary("B"))
	r.set("max_rss_mb", c.rss.median(), "peak resident set of one iteration; "+c.rss.summary("MB"))
}

// setTraceOverhead reports how much tracing raised CPU per operation.
func setTraceOverhead(r *report, plain, traced cost) {
	a, b := plain.cpu.median(), traced.cpu.median()
	r.set("bench.trace_overhead", (b-a)/a, fmt.Sprintf("CPU per op traced %.4g ns vs untraced %.4g ns", b, a))
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// dist is a sample of durations (or any values) with the summary the
// report prints: the median and the highest percentile that has at
// least ten samples beyond it.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile; NaN on an empty sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (d dist) median() float64 { return d.quantile(0.5) }

// mean is the arithmetic mean; 0 on an empty sample.
func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// tail returns the highest of p99.9, p99 and p90 that at least ten
// samples lie beyond, and false when the sample is too small for any.
func (d dist) tail() (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		// The quantile's nearest rank leaves len-rank samples beyond it.
		if rank := int(math.Ceil(q*float64(len(d)) - 1e-9)); len(d)-rank >= 10 {
			return q, d.quantile(q), true
		}
	}
	return 0, 0, false
}

// summary describes d for the human-readable report lines.
func (d dist) summary(unit string) string {
	if len(d) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4g%s", len(d), d.median(), unit)
	if q, v, ok := d.tail(); ok {
		s += fmt.Sprintf(" p%g=%.4g%s", q*100, v, unit)
	}
	return s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupTimes are the per-repetition costs of a workload's set-up.
type setupTimes struct {
	cpu, wall dist // seconds
}

// report sets setup_s: the median process CPU time of a set-up, with
// the wall time in the note. CPU time leaves out the time the host
// withholds the processor: on a shared virtual machine the wall time of
// an unchanged set-up rose 31 % from one set of ten runs to the next,
// while CPU per operation in the same runs rose 11 %. Work moved into
// set-up shows in either.
func (st setupTimes) report(r *report, what string) {
	r.set("setup_s", st.cpu.median(), fmt.Sprintf("process CPU of %s; %s; wall %s", what, st.cpu.summary("s"), st.wall.summary("s")))
}

// setupN runs set-up n times and keeps the last fixture, so setup_s is
// a median and the fixture the run measures was built exactly like
// every timed one. Earlier fixtures are released before the next build.
func setupN[T any](n int, build func() (T, error), release func(T)) (T, setupTimes, error) {
	var fx, none T
	var st setupTimes
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(fx)
		}
		fx = none
		runtime.GC()
		u0 := readUsage()
		var err error
		fx, err = build()
		if err != nil {
			return fx, st, err
		}
		u1 := readUsage()
		st.cpu = append(st.cpu, (u1.cpu - u0.cpu).Seconds())
		st.wall = append(st.wall, u1.wall.Sub(u0.wall).Seconds())
	}
	return fx, st, nil
}

// splitmix derives independent 64-bit values from the workload seed.
func splitmix(seed, k uint64) uint64 {
	h := seed + k*0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}
