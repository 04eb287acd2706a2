#!/bin/sh
# bench.sh [output.json] — run the benchmark suite and emit
# machine-readable `go test -json` output for BENCH_*.json trajectory
# tracking. Human-readable results still stream to stderr via the JSON
# "Output" lines; pass a path to capture the raw JSON.
#
# Environment knobs:
#   BENCHTIME           -benchtime for the suite run (default 1x)
#   BENCH               -bench pattern (default ., the whole suite)
#   BENCH_COMPARE       set to 0 to skip the baseline comparison
#   BENCH_COMPARE_TIME  -benchtime for the comparison run (default 5x)
#   BENCH_CKPT_TIME     -benchtime for the checkpoint-overhead gate (default 20x)
#   BENCH_WIRE_TIME     -benchtime for the batched wire-path gate (default 3x)
#
# Baseline comparison: after the suite run, if the committed baseline
# BENCH_table1.json exists next to this script, the headline
# BenchmarkTable1_RotatingPrefixDiscovery (pinned to one worker, as the
# baseline was recorded) is re-run on its own at
# BENCH_COMPARE_TIME iterations (a single 1x sample is too noisy to
# gate on) and its mean ns/op must stay within 25% of the baseline or
# the job fails. Baselines are machine-specific — refresh with
#   BENCHTIME=5x BENCH='BenchmarkTable1|BenchmarkAdaptive' ./bench.sh BENCH_table1.json
# when the perf trajectory moves legitimately (or on new hardware).
#
# Worker-scaling gate: when GOMAXPROCS >= 2, BenchmarkTable1_Workers'
# workers=2 case must run at least 1.2x faster than workers=1 (medians
# of three interleaved 3x runs each); on one CPU the gate prints a skip
# line.
#
# The default suite pattern also covers the serving layer:
# BenchmarkScentdQuery/{quiet,during-ingestion} records query round-trip
# cost against a populated scentd store with and without a concurrent
# ingestion writer, so the JSON artifact carries the snapshot-isolation
# overhead next to the Table 1 headline; BenchmarkScentdCommit/days={1,8,32}
# records one day commit's ns/op and B/op against the store's size.
# BenchmarkDefenseMatrix runs the full modality x defense matrix
# (DESIGN.md §11) and logs its headline, so the artifact also records
# the defense scorecard's shape (worlds/cells metrics plus the headline
# Output line).
#
# BenchmarkCampaignCoordinated (DESIGN.md §13) measures coordinator
# overhead: one coordinated campaign day over a live UDP world at 1 and
# 4 scanner nodes, next to the identical four shard scans run directly
# through the engine with no coordinator. The nodes=1 vs direct gap is
# what the lease RPCs, result framing and merge-and-dedupe cost; the
# nodes=4 line is what the fan-out buys back. All three report the same
# result count, so the artifact carries the distributed path's
# correctness signal alongside its timing.
set -eu

out=${1:-}
benchtime=${BENCHTIME:-1x}
pattern=${BENCH:-.}
here=$(dirname "$0")

tmp=
cmp=
ck=
wp=
sc=
trap 'rm -f "$tmp" "$cmp" "$ck" "$wp" "$sc"' EXIT
if [ -z "$out" ]; then
	tmp=$(mktemp)
	out=$tmp
else
	mkdir -p "$(dirname "$out")"
fi

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -json . >"$out"

if [ -n "$tmp" ]; then
	# No output path given: keep the historical behaviour of streaming
	# the JSON to stdout.
	cat "$out"
else
	echo "wrote $out" >&2
fi

# bench_ns extracts one benchmark's ns/op from a `go test -json`
# capture. The benchmark name and its result line are separate JSON
# events, but both carry the exact "Test" field, which is what keeps
# BenchmarkTable1_Workers sub-benchmarks out of the match.
bench_ns() {
	grep "\"Test\":\"$1\"" "$2" |
		grep 'ns/op' |
		sed -n 's|.*[^0-9]\([0-9][0-9]*\) ns/op.*|\1|p' |
		head -1
}

# bench_metric extracts a custom b.ReportMetric value (unit $2, which
# may be fractional) for benchmark $1 from capture $3.
bench_metric() {
	grep "\"Test\":\"$1\"" "$3" |
		grep " $2" |
		sed -n "s|.*[^0-9.]\([0-9][0-9.]*\) $2.*|\1|p" |
		head -1
}

headline_ns() {
	bench_ns BenchmarkTable1_RotatingPrefixDiscovery "$1"
}

baseline=$here/BENCH_table1.json
if [ "${BENCH_COMPARE:-1}" != 0 ] && [ -f "$baseline" ]; then
	base=$(headline_ns "$baseline")
	# Dedicated comparison run: the suite above may run at 1x for speed,
	# but a single iteration is too noisy to fail a job on.
	cmp=$(mktemp)
	go test -run '^$' -bench 'BenchmarkTable1_RotatingPrefixDiscovery$' \
		-benchtime "${BENCH_COMPARE_TIME:-5x}" -json . >"$cmp"
	new=$(headline_ns "$cmp")
	if [ -n "$base" ] && [ -n "$new" ]; then
		limit=$((base + base / 4))
		if [ "$new" -gt "$limit" ]; then
			echo "bench regression: BenchmarkTable1_RotatingPrefixDiscovery $new ns/op exceeds baseline $base ns/op by >25% (limit $limit)" >&2
			exit 1
		fi
		echo "bench compare: BenchmarkTable1_RotatingPrefixDiscovery $new ns/op vs baseline $base ns/op (limit $limit) — ok" >&2
	else
		echo "bench compare skipped: headline benchmark missing from run or baseline" >&2
	fi
fi

# Checkpointing-overhead gate: the fault-tolerance machinery
# (Config.Progress high-water marks plus the quarantine failure
# policy) must cost under 5% against the unarmed headline. Both sides
# are measured back to back in one dedicated run — a relative gate
# this tight needs more iterations than the 25% baseline gate above,
# hence its own BENCH_CKPT_TIME knob (default 20x).
if [ "${BENCH_COMPARE:-1}" != 0 ]; then
	ck=$(mktemp)
	go test -run '^$' \
		-bench 'BenchmarkTable1_RotatingPrefixDiscovery$|BenchmarkTable1_WithCheckpointing$' \
		-benchtime "${BENCH_CKPT_TIME:-20x}" -json . >"$ck"
	plain=$(bench_ns BenchmarkTable1_RotatingPrefixDiscovery "$ck")
	armed=$(bench_ns BenchmarkTable1_WithCheckpointing "$ck")
	if [ -n "$plain" ] && [ -n "$armed" ]; then
		climit=$((plain + plain / 20))
		if [ "$armed" -gt "$climit" ]; then
			echo "bench regression: BenchmarkTable1_WithCheckpointing $armed ns/op exceeds the unarmed headline $plain ns/op by >5% (limit $climit)" >&2
			exit 1
		fi
		echo "bench compare: BenchmarkTable1_WithCheckpointing $armed ns/op vs unarmed $plain ns/op (limit $climit) — ok" >&2
	else
		echo "checkpoint overhead gate skipped: benchmark missing from run" >&2
	fi
fi

# Batched wire-path gate: BenchmarkWirePPS drives full scans against an
# in-process simnetd UDP server and reports probes/sec, per-packet
# (batch=0) vs vectored/offloaded (batch=64). The batched path must
# hold at least a 5x probes-per-second advantage at one worker — the
# configuration where the syscall-amortisation win is purest — or the
# job fails. BENCH_WIRE_TIME sets the per-variant iteration count
# (default 3x; each iteration is a whole scan, so counts stay small).
if [ "${BENCH_COMPARE:-1}" != 0 ]; then
	wp=$(mktemp)
	go test -run '^$' -bench 'BenchmarkWirePPS/workers=1,' \
		-benchtime "${BENCH_WIRE_TIME:-3x}" -json . >"$wp"
	single=$(bench_metric 'BenchmarkWirePPS/workers=1,batch=0' pps "$wp")
	batch=$(bench_metric 'BenchmarkWirePPS/workers=1,batch=64' pps "$wp")
	if [ -n "$single" ] && [ -n "$batch" ]; then
		if ! awk -v b="$batch" -v s="$single" 'BEGIN{exit !(b >= 5 * s)}'; then
			echo "bench regression: BenchmarkWirePPS batched path $batch pps is under 5x the per-packet baseline $single pps" >&2
			exit 1
		fi
		echo "bench compare: BenchmarkWirePPS $batch pps batched vs $single pps per-packet (>=5x) — ok" >&2
	else
		echo "wire pps gate skipped: benchmark missing from run" >&2
	fi
fi

# Worker-scaling gate: a second scan worker must buy wall-clock speedup.
# BenchmarkTable1_Workers' workers=1 and workers=2 cases run alternately,
# three dedicated runs each, so drift on a shared box lands on both
# sides; the workers=2 median must be at least 1.2x faster than the
# workers=1 median. The gate needs two CPUs to mean anything, so on one
# it prints a skip line instead.
if [ "${BENCH_COMPARE:-1}" != 0 ]; then
	procs=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}
	if [ "$procs" -ge 2 ]; then
		sc=$(mktemp)
		w1=
		w2=
		for run in 1 2 3; do
			for workers in 1 2; do
				go test -run '^$' -bench "^BenchmarkTable1_Workers\$/^workers=$workers\$" \
					-benchtime 3x -json . >"$sc"
				ns=$(bench_ns "BenchmarkTable1_Workers/workers=$workers" "$sc")
				if [ "$workers" = 1 ]; then w1="$w1 $ns"; else w2="$w2 $ns"; fi
			done
		done
		median() { printf '%s\n' $1 | sort -n | sed -n 2p; }
		m1=$(median "$w1")
		m2=$(median "$w2")
		if [ -n "$m1" ] && [ -n "$m2" ]; then
			if ! awk -v a="$m1" -v b="$m2" 'BEGIN{exit !(a >= 1.2 * b)}'; then
				echo "bench regression: BenchmarkTable1_Workers workers=2 median $m2 ns/op is under 1.2x faster than workers=1 median $m1 ns/op (runs:$w1 /$w2)" >&2
				exit 1
			fi
			echo "bench compare: BenchmarkTable1_Workers workers=2 median $m2 ns/op vs workers=1 median $m1 ns/op (>=1.2x) — ok" >&2
		else
			echo "worker scaling gate skipped: benchmark missing from run" >&2
		fi
	else
		echo "worker scaling gate skipped: GOMAXPROCS=$procs, needs >= 2" >&2
	fi
fi
