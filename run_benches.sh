#!/bin/bash
# Runs every table/figure bench at default scale plus the micro suite, then
# refreshes the machine-readable GEMM/NN perf trajectory at
# bench/baselines/BENCH_gemm.json (google-benchmark JSON; commit the diff so
# every PR records its perf delta — the seed's numbers are frozen in
# bench/baselines/BENCH_gemm_seed.json).
set -u
cd "$(dirname "$0")"

# Tag the whole run with the active SIMD capability level (also recorded in
# every JSON baseline via the benchmark context key "simd") — numbers from
# different ladder levels are not comparable.
SIMD_LEVEL="$(build/bench/bench_micro --print-simd)"
echo "active SIMD capability: ${SIMD_LEVEL}${PAFEAT_SIMD:+ (PAFEAT_SIMD=${PAFEAT_SIMD})}"

for b in build/bench/bench_table1_datasets build/bench/bench_fig5_f1_vs_mfr \
         build/bench/bench_fig6_auc_vs_mfr build/bench/bench_table2_timing \
         build/bench/bench_fig7_single_task build/bench/bench_table3_ablation \
         build/bench/bench_fig8_its_difficulty build/bench/bench_fig9_further_training \
         build/bench/bench_ablation_reward_mode \
         build/bench/bench_micro; do
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  $b 2>&1
  echo
done

echo "===================================================================="
echo "== GEMM/NN kernel trajectory -> bench/baselines/BENCH_gemm.json"
echo "===================================================================="
mkdir -p bench/baselines
build/bench/bench_micro \
  --benchmark_filter='BM_MatMul|BM_TransposedMatMul|BM_MatMulTransposed|BM_Gemm|BM_Mlp' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_gemm.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_gemm.json"

echo "===================================================================="
echo "== Reward-path trajectory -> bench/baselines/BENCH_reward.json"
echo "===================================================================="
# Uncached reward evaluation at several mask densities plus per-step action
# selection; the seed's numbers are frozen in
# bench/baselines/BENCH_reward_seed.json.
build/bench/bench_micro \
  --benchmark_filter='BM_RewardEval|BM_AgentAct' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_reward.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_reward.json"

echo "===================================================================="
echo "== Batched inference plane -> bench/baselines/BENCH_batch.json"
echo "===================================================================="
# Step-inference throughput of the batched plane vs batch-of-one queries,
# plus full iterations through the batched collector; the seed's single-row
# numbers are frozen in bench/baselines/BENCH_batch_seed.json. The blocking
# collection path is gone, so BM_IterationSingleRow is no longer produced:
# the BENCH_batch*.json files keep its recorded legs as history.
build/bench/bench_micro \
  --benchmark_filter='BM_StepInference|BM_Iteration' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_batch.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_batch.json"

echo "===================================================================="
echo "== SIMD ladder + quantized serving tier -> bench/baselines/BENCH_simd.json"
echo "===================================================================="
# The serving-plane kernels at the active capability level (tagged via the
# "simd" context key) plus the int8 serving tier and its one-shot
# quantization cost; the freeze of this file's first run is
# bench/baselines/BENCH_simd_seed.json. Acceptance tracking at obs_dim 2043:
# BM_StepInferenceBatched vs the frozen BENCH_batch_seed baseline (530.7us;
# >= 1.3x on AVX-512 hosts — best quiet-machine windows measure ~396-412us,
# contended windows regress to the memory-bandwidth floor ~590us shared with
# AVX2) and BM_StepInferenceQuantized (~310-335us) vs fp32 step inference:
# >= 2x against the frozen single-row path (1354.6us, ~4.4x) and ~1.3-1.7x
# against the batched plane. Without AVX-512 VNNI the int8 dot products run
# on the same two FMA ports as fp32, so the quantized tier's structural win
# over the batched fp32 plane is halved memory traffic, not ALU throughput
# (DESIGN.md "Quantized serving tier").
build/bench/bench_micro \
  --benchmark_filter='BM_StepInference|BM_QuantizeCheckpoint' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_simd.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_simd.json (simd=${SIMD_LEVEL})"

echo "===================================================================="
echo "== Sharded training plane -> bench/baselines/BENCH_shard.json"
echo "===================================================================="
# BM_IterationSharded/N: one training iteration at num_threads=N, i.e. the
# collector plane split round-robin into N shards that each step their own
# episodes serially — the scale-out curve. The committed baselines predate
# the merge of num_shards into num_threads: they ran N hash-placed shards
# at num_threads=1, the same shape apart from the split. Interpreting the
# curve requires the JSON's num_cpus context key: shards only buy
# wall-clock on hosts with cores to run them; on a single-core host every
# shard executes back-to-back
# on one core and the curve measures the fan-out/merge overhead instead
# (DESIGN.md "Sharded training plane"). The acceptance target — >= 1.5x
# iteration throughput at 4 shards — is a multi-core criterion; the frozen
# num_cpus=1 baseline measures wall 3.88ms -> 3.74ms (1.04x, i.e. the
# fan-out+merge costs less than the rendezvous overhead it replaces even
# with zero extra cores) while per-iteration main-thread CPU drops 3.80ms
# -> 1.49ms (2.6x offloaded to pool workers). The first run's numbers are
# frozen in bench/baselines/BENCH_shard_seed.json.
build/bench/bench_micro \
  --benchmark_filter='BM_IterationSharded' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_shard.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_shard.json"
if [ ! -f bench/baselines/BENCH_shard_seed.json ]; then
  cp bench/baselines/BENCH_shard.json bench/baselines/BENCH_shard_seed.json
  echo "froze bench/baselines/BENCH_shard_seed.json"
fi

echo "===================================================================="
echo "== Bounded memory plane -> bench/baselines/BENCH_memory.json"
echo "===================================================================="
# The tiered reward cache's hit path and epoch-close sweep, trajectory
# appends through the sharded replay store, and fig7-scale iterations with
# binding cache+replay budgets (BM_IterationBounded/1, 64KB cache + 256KB
# replay per task, nonzero evictions counter) vs unlimited
# (BM_IterationBounded/0); both legs warm up 40 iterations untimed so
# hit_rate is the steady-state figure. Acceptance (DESIGN.md "Bounded
# memory plane"): the bounded leg's cache_bytes/replay_bytes counters pin
# at the budget while its hit_rate retains >= 90% of the unbounded leg's —
# bounded memory without giving back the memoization win (the absolute
# rate either way, ~0.7-0.8, is the policy's residual exploration, not a
# capacity effect). The first run's numbers are frozen in
# bench/baselines/BENCH_memory_seed.json.
build/bench/bench_micro \
  --benchmark_filter='BM_RewardCache|BM_ReplayStore|BM_IterationBounded' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out=bench/baselines/BENCH_memory.json > /dev/null 2>&1 \
  && echo "wrote bench/baselines/BENCH_memory.json"
if [ ! -f bench/baselines/BENCH_memory_seed.json ]; then
  cp bench/baselines/BENCH_memory.json bench/baselines/BENCH_memory_seed.json
  echo "froze bench/baselines/BENCH_memory_seed.json"
fi

echo "===================================================================="
echo "== Selection serving plane -> bench/baselines/BENCH_serve.json"
echo "===================================================================="
# Offered-load sweep over the SelectionServer: 1/8/64 concurrent clients x
# fp32/int8 tiers at m=1020 (obs_dim 2043), tasks/sec + p50/p99 latency vs
# the sequential CheckpointedSelector baseline. Acceptance (DESIGN.md
# "Selection serving plane"): >= 2x tasks/sec at 8+ concurrent clients on
# the fp32 tier — on a single-core host the entire multiple is coalescing
# efficiency (the batched step-inference ratio), ~2.6-2.7x at width ~7.
# The int8 tier starts from a ~3x faster sequential floor, so its coalescing
# multiple is smaller (~1.6x). Seed freeze: BENCH_serve_seed.json.
build/bench/bench_serve --json_out=bench/baselines/BENCH_serve.json
if [ ! -f bench/baselines/BENCH_serve_seed.json ]; then
  cp bench/baselines/BENCH_serve.json bench/baselines/BENCH_serve_seed.json
  echo "froze bench/baselines/BENCH_serve_seed.json"
fi
