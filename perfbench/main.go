// Command perfbench is followscent's end-to-end and per-layer
// benchmark. It runs one named workload for a fixed time, checks every
// output against an oracle, and prints the metrics BENCHMARK.json
// declares, one line each, then a JSON result object as the last line
// of standard output. See README.md.
//
//	perfbench --workload discovery|wire|serve --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload to its runner and to how many times it
// sets up per run: setup_s is the median of those set-ups, and the
// cheap set-ups are repeated more because their noise is relatively
// larger.
var workloads = map[string]struct {
	run    func(context.Context, options) (*report, error)
	setups int
}{
	"discovery": {runDiscovery, 5},
	"wire":      {runWire, 9},
	"serve":     {runServe, 3},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int
	nproc    int
	workDir  string // scratch files and span output
	meta     *meta
}

// duration is the measured time of the run.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (o options) spansPath() string {
	return filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

// meta is what every run holds fixed and records.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Workers    int     `json:"workers,omitempty"`
	Clients    int     `json:"clients,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run returns 0 on a correct run, 1 when an oracle disagreed (the
// result object is still printed) and 2 when the run could not
// complete (no result object).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	o := options{nproc: runtime.NumCPU()}
	flags.StringVar(&o.workload, "workload", "", "workload to run: discovery, wire or serve")
	flags.Uint64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	flags.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	trace := flags.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	flags.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and spans")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || *trace < 0 || *trace > 1 || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload discovery|wire|serve, --trace 0|1, --seconds > 0\n")
		return 2
	}
	o.setups = wl.setups
	o.trace = *trace == 1
	o.meta = &meta{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: o.nproc,
		CPU: cpuModel(), Go: runtime.Version(), Commit: gitCommit("."),
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	r, err := wl.run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	mj, _ := json.Marshal(o.meta) // plain fields cannot fail to encode
	fmt.Fprintf(stdout, "# meta %s\n", mj)
	catalog, requireAll := endToEnd, true
	if o.trace {
		catalog, requireAll = perLayer, false
	}
	if err := r.write(stdout, catalog, requireAll); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !r.correct {
		fmt.Fprintf(stderr, "perfbench: %s: oracle mismatch: %s\n", o.workload, r.mismatch)
		return 1
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the checkout's .git directory without
// running git, which would search parent directories for a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}
