#!/bin/sh
# Regenerates BENCH_perf.json, the committed performance trajectory for the
# simulator, and the monitoring_disabled block of BENCH_obs.json. Run on an
# idle machine:
#
#	scripts/bench.sh            # ~1 min
#	BENCHTIME=5x scripts/bench.sh
#
# The pre_pr_baseline block (BENCH_perf.json) and the observability
# blocks plus the pre_pr_* fields of monitoring_disabled (BENCH_obs.json)
# are frozen measurements taken immediately before their respective PRs
# and are preserved verbatim so every later regeneration still shows the
# trajectory against the same origins.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run xxx -bench 'SimulatorThroughput|Suite|WarmupSweep|FastForwardAccuracy|FrontEndSweep|ReplayAccuracy|SampledSweep|SampledAccuracy' \
	-benchtime "$BENCHTIME" -benchmem . | tee "$TMP"

# pick BENCH UNIT: prints the value whose following field is UNIT on the
# line of benchmark BENCH.
pick() {
	awk -v bench="$1" -v unit="$2" '
		$1 ~ "^Benchmark" bench {
			for (i = 2; i < NF; i++) if ($(i + 1) == unit) { print $i; exit }
		}' "$TMP"
}

INSTS_S="$(pick SimulatorThroughput 'insts/s')"
BYTES_OP="$(pick SimulatorThroughput 'B/op')"
ALLOCS_OP="$(pick SimulatorThroughput 'allocs/op')"
CHK_INSTS_S="$(pick SimulatorThroughputChecked 'insts/s')"
SEQ_NS="$(pick SuiteSequential 'ns/op')"
PAR_NS="$(pick SuiteParallel 'ns/op')"
DET_NS="$(pick WarmupSweepDetailed 'ns/op')"
CKPT_NS="$(pick WarmupSweepCheckpointed 'ns/op')"
IPC_DELTA="$(pick FastForwardAccuracy 'ipc-delta-%')"
EFF_DELTA="$(pick FastForwardAccuracy 'effrate-delta-%')"
MISP_DELTA="$(pick FastForwardAccuracy 'mispredict-delta-pp')"
FES_DET_NS="$(pick FrontEndSweepDetailed 'ns/op')"
FES_REP_NS="$(pick FrontEndSweepReplay 'ns/op')"
REP_BASE_EFF="$(pick ReplayAccuracy 'baseline-eff-delta-%')"
REP_BASE_MISP="$(pick ReplayAccuracy 'baseline-mispredict-delta-pp')"
REP_BEST_EFF="$(pick ReplayAccuracy 'best-eff-delta-%')"
REP_BEST_MISP="$(pick ReplayAccuracy 'best-mispredict-delta-pp')"
SAM_DET_NS="$(pick SampledSweepDetailed 'ns/op')"
SAM_NS="$(pick SampledSweepSampled 'ns/op')"
SAM_BASE_IPC="$(pick SampledAccuracy 'baseline-ipc-delta-%')"
SAM_BASE_EFF="$(pick SampledAccuracy 'baseline-eff-delta-%')"
SAM_BASE_MISP="$(pick SampledAccuracy 'baseline-mispredict-delta-pp')"
SAM_BASE_CI="$(pick SampledAccuracy 'baseline-ipc-ci-halfwidth')"
SAM_BASE_COV="$(pick SampledAccuracy 'baseline-covered-of-3')"
SAM_BEST_IPC="$(pick SampledAccuracy 'best-ipc-delta-%')"
SAM_BEST_EFF="$(pick SampledAccuracy 'best-eff-delta-%')"
SAM_BEST_MISP="$(pick SampledAccuracy 'best-mispredict-delta-pp')"
SAM_BEST_CI="$(pick SampledAccuracy 'best-ipc-ci-halfwidth')"
SAM_BEST_COV="$(pick SampledAccuracy 'best-covered-of-3')"

if [ -z "$INSTS_S" ] || [ -z "$SEQ_NS" ] || [ -z "$PAR_NS" ] ||
	[ -z "$DET_NS" ] || [ -z "$CKPT_NS" ] || [ -z "$IPC_DELTA" ] ||
	[ -z "$CHK_INSTS_S" ] || [ -z "$FES_DET_NS" ] || [ -z "$FES_REP_NS" ] ||
	[ -z "$REP_BASE_EFF" ] || [ -z "$REP_BEST_EFF" ] ||
	[ -z "$SAM_DET_NS" ] || [ -z "$SAM_NS" ] || [ -z "$SAM_BASE_IPC" ]; then
	echo "bench.sh: failed to parse benchmark output" >&2
	exit 1
fi

SPEEDUP="$(awk -v s="$SEQ_NS" -v p="$PAR_NS" 'BEGIN { printf "%.2f", s / p }')"
SAM_SPEEDUP="$(awk -v d="$SAM_DET_NS" -v s="$SAM_NS" 'BEGIN { printf "%.2f", d / s }')"
REPLAY_SPEEDUP="$(awk -v d="$FES_DET_NS" -v r="$FES_REP_NS" 'BEGIN { printf "%.2f", d / r }')"
CHK_SLOWDOWN="$(awk -v p="$INSTS_S" -v c="$CHK_INSTS_S" 'BEGIN { printf "%.2f", p / c }')"
FF_SPEEDUP="$(awk -v d="$DET_NS" -v c="$CKPT_NS" 'BEGIN { printf "%.2f", d / c }')"
GOVER="$(go env GOVERSION)"
CPUS="$(getconf _NPROCESSORS_ONLN)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

cat > BENCH_perf.json <<EOF
{
  "generated_utc": "$DATE",
  "host": { "cpus": $CPUS, "go": "$GOVER" },
  "benchtime": "$BENCHTIME",
  "simulator_throughput": {
    "benchmark": "BenchmarkSimulatorThroughput",
    "insts_per_sec": $INSTS_S,
    "bytes_per_op": $BYTES_OP,
    "allocs_per_op": $ALLOCS_OP,
    "alternating_check_2026_08_08": {
      "note": "frozen cross-check from the record/replay PR: head vs the tree immediately before it, alternating prebuilt test binaries, 4 rounds of -benchtime 5x each, min-of-rounds (PR-6 methodology). The front-end copy-elimination landed with replay also speeds up the detailed simulator.",
      "pre_pr_ns_per_op_min": 242915894,
      "head_ns_per_op_min": 232101544,
      "pre_pr_allocs_per_op": 104086,
      "head_allocs_per_op": 67633
    },
    "alternating_check_2026_10_18": {
      "note": "frozen cross-check from the hot-loop copy-elimination change (amortized undo-log release, window/engine/bundle entries built in place): head vs the tree immediately before it on 2 CPUs (go1.24.0), alternating prebuilt test binaries, 9 rounds of -benchtime 5x each (4 in one sitting, 5 in a later, busier one; the busier set alone reads 503974032 vs 282961083), min-of-rounds. Bytes/op rise 0.3% because the undo log may hold up to twice its live records before it shifts.",
      "pre_pr_ns_per_op_min": 357696423,
      "head_ns_per_op_min": 231508827,
      "speedup_x": 1.55,
      "pre_pr_bytes_per_op": 28820704,
      "head_bytes_per_op": 28903788,
      "pre_pr_allocs_per_op": 67637,
      "head_allocs_per_op": 67641
    }
  },
  "self_check": {
    "benchmark": "BenchmarkSimulatorThroughputChecked",
    "note": "gcc/baseline with the -check self-verification layer on (lockstep reference model + structural invariants + conservation identities); committed numbers are produced with -check off",
    "insts_per_sec_checked": $CHK_INSTS_S,
    "slowdown_x": $CHK_SLOWDOWN
  },
  "suite": {
    "benchmark": "BenchmarkSuiteSequential / BenchmarkSuiteParallel",
    "sequential_ns_per_op": $SEQ_NS,
    "parallel_ns_per_op": $PAR_NS,
    "parallel_speedup": $SPEEDUP
  },
  "fast_forward": {
    "benchmark": "BenchmarkWarmupSweepDetailed / BenchmarkWarmupSweepCheckpointed / BenchmarkFastForwardAccuracy",
    "note": "10-point sweep, 200k-instruction unmeasured prefix per point, sequential (workers=1); accuracy vs all-detailed warmup on gcc/baseline",
    "detailed_sweep_ns_per_op": $DET_NS,
    "checkpointed_sweep_ns_per_op": $CKPT_NS,
    "checkpoint_sweep_speedup": $FF_SPEEDUP,
    "ipc_delta_pct": $IPC_DELTA,
    "eff_fetch_rate_delta_pct": $EFF_DELTA,
    "mispredict_rate_delta_pp": $MISP_DELTA
  },
  "replay": {
    "benchmark": "BenchmarkFrontEndSweepDetailed / BenchmarkFrontEndSweepReplay / BenchmarkReplayAccuracy",
    "note": "10-point front-end sweep (5 configs x gcc,go; 60k warmup + 100k measured per point, workers=1). The replay variant records each benchmark once outside the timer, then resolves every point from the decoded retired stream (front end only, see DESIGN.md). Accuracy deltas are replay-vs-detailed on gcc for the baseline and promo-pack-costreg configs; committed experiment numbers remain fully detailed (replay is opt-in).",
    "detailed_sweep_ns_per_op": $FES_DET_NS,
    "replay_sweep_ns_per_op": $FES_REP_NS,
    "replay_sweep_speedup": $REPLAY_SPEEDUP,
    "baseline_eff_fetch_rate_delta_pct": $REP_BASE_EFF,
    "baseline_mispredict_rate_delta_pp": $REP_BASE_MISP,
    "promo_pack_costreg_eff_fetch_rate_delta_pct": $REP_BEST_EFF,
    "promo_pack_costreg_mispredict_rate_delta_pp": $REP_BEST_MISP
  },
  "sampling": {
    "benchmark": "BenchmarkSampledSweepDetailed / BenchmarkSampledSweepSampled / BenchmarkSampledAccuracy",
    "note": "6-point sweep (baseline,icache,promo-pack-costreg x gcc,go) over a 400k committed-stream extent per point, workers=1; the sampled variant covers the extent with 10 windows of 1k insts + 1k detailed warmup each (SMARTS-style, see DESIGN.md). Accuracy is sampled-vs-detailed on gcc over a fully-detailed-feasible 1M extent (20 windows, 5k warmup); covered_of_3 counts headline metrics (IPC, eff fetch rate, mispredict rate) whose detailed truth falls inside the sampled 95% CI. Committed experiment numbers remain fully detailed (sampling is opt-in).",
    "detailed_sweep_ns_per_op": $SAM_DET_NS,
    "sampled_sweep_ns_per_op": $SAM_NS,
    "sampled_sweep_speedup": $SAM_SPEEDUP,
    "baseline_ipc_delta_pct": $SAM_BASE_IPC,
    "baseline_eff_fetch_rate_delta_pct": $SAM_BASE_EFF,
    "baseline_mispredict_rate_delta_pp": $SAM_BASE_MISP,
    "baseline_ipc_ci_halfwidth": $SAM_BASE_CI,
    "baseline_covered_of_3": $SAM_BASE_COV,
    "promo_pack_costreg_ipc_delta_pct": $SAM_BEST_IPC,
    "promo_pack_costreg_eff_fetch_rate_delta_pct": $SAM_BEST_EFF,
    "promo_pack_costreg_mispredict_rate_delta_pp": $SAM_BEST_MISP,
    "promo_pack_costreg_ipc_ci_halfwidth": $SAM_BEST_CI,
    "promo_pack_costreg_covered_of_3": $SAM_BEST_COV
  },
  "pre_pr_baseline": {
    "note": "measured before the parallel sweep engine + allocation diet (sequential runner, cpus=1)",
    "insts_per_sec": 649169,
    "bytes_per_op": 211958994,
    "allocs_per_op": 1678980,
    "tcbench_exp_all_warmup40k_insts80k_seconds": 50.06
  }
}
EOF
echo "wrote BENCH_perf.json"

# BENCH_obs.json: refresh the monitoring disabled-path head measurement
# against the frozen pre-monitoring-PR baseline. The observability blocks
# (disabled_path, enabled_path) are PR-1-era frozen measurements.
HEAD_NS="$(pick SimulatorThroughput 'ns/op')"
MON_BASE_MIN=236530691
MON_DELTA="$(awk -v h="$HEAD_NS" -v b="$MON_BASE_MIN" 'BEGIN { printf "%.2f", (h / b - 1) * 100 }')"
MON_PASS="$(awk -v d="$MON_DELTA" 'BEGIN { print (d <= 1.0) ? "true" : "false" }')"

cat > BENCH_obs.json <<EOF
{
  "description": "Observability-layer overhead baseline. Disabled-path numbers compare BenchmarkSimulatorThroughput (bench_test.go, gcc/baseline, 200k insts) between the pre-observability seed (f3365ad) and this tree with no observer attached, run as alternating prebuilt binaries, 8 rounds of -benchtime 5x each; min-of-rounds is the noise-robust statistic (an identical-binary control run showed a +/-7% noise floor on this host). Enabled-path numbers are BenchmarkSimulatorObsDisabled / BenchmarkSimulatorObsEnabled (internal/obs, compress/promo-t64, 200k insts) with a full ChromeTrace sink and interval collector attached.",
  "date": "2026-08-05",
  "host": "vm (linux, go1.24.0)",
  "disabled_path": {
    "benchmark": "BenchmarkSimulatorThroughput",
    "seed_ns_per_op_min": 253975476,
    "head_ns_per_op_min": 245762939,
    "seed_ns_per_op_mean": 297541941,
    "head_ns_per_op_mean": 295975848,
    "delta_min_pct": -3.23,
    "delta_mean_pct": -0.53,
    "criterion": "<= 1% slowdown vs seed",
    "pass": true,
    "note": "the records-slice preallocation added alongside the instrumentation more than pays for the widened fetchRec; all emit sites are nil-checked and the profile shows no obs frames with no observer attached"
  },
  "enabled_path": {
    "disabled_ns_per_op_min": 277403661,
    "enabled_ns_per_op_min": 541596109,
    "overhead_x": 1.95,
    "note": "opt-in cost with every sink attached (ChromeTrace retains ~1M events in memory); the bus alone without retention sinks is far cheaper"
  },
  "monitoring_disabled": {
    "date": "$DATE",
    "benchmark": "BenchmarkSimulatorThroughput",
    "note": "fleet-metrics disabled-path overhead (no -http/-journal: Simulator.met nil, Runner hooks nil). Baseline is the tree immediately before the monitoring PR (min of 6 alternating -benchtime 5x rounds); head is this regeneration's single $BENCHTIME round, so expect the +/-7% noise floor.",
    "pre_pr_ns_per_op_min": $MON_BASE_MIN,
    "head_ns_per_op": $HEAD_NS,
    "delta_pct": $MON_DELTA,
    "criterion": "head no slower than the frozen pre-PR baseline min (+1% tolerance, inside the noise floor)",
    "pass": $MON_PASS
  }
}
EOF
echo "wrote BENCH_obs.json"
