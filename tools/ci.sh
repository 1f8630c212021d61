#!/bin/sh
# Local CI: the tier-1 gate plus the sanitizer suites.
#
#   tools/ci.sh [JOBS]
#
# 1. Configures and builds the plain tree, runs the full ctest suite
#    (the tier-1 gate from ROADMAP.md), then the metrics, traffic,
#    recovery, and circuit suites by label, a wire-mode (--wire-cells)
#    thread-count byte-identity smoke, and a checkpoint/resume
#    byte-identity smoke check on the CLI (whose negative leg resumes
#    against a different trace and must fail).
# 2. Runs the contact-query byte-identity suite by label, the scale suite
#    (cross-backend equivalence; ctest -L scale) plus a fig_scale smoke at
#    n=1e5 with a bytes/node bound, then the perf smokes: the micro_sim
#    hot-path benchmarks against the committed BENCH_micro_sim.json
#    baseline (fail on >20% regression) and the micro_crypto per-forward
#    costs against BENCH_micro_crypto.json (>25%).
# 3. Static analysis: runs tools/odtn_lint over src/ bench/ tools/ (the
#    determinism-contract rules; see DESIGN.md §5f) plus its fixture suite
#    (ctest -L lint), then clang-tidy with the committed .clang-tidy
#    baseline over src/ — skipped with a notice when clang-tidy is not
#    installed (the container image does not ship it).
# 4. Configures a -DODTN_SANITIZE=thread tree in build-tsan/, builds only
#    the tsan-labelled test targets, and runs `ctest -L tsan` under TSan.
# 5. Configures a -DODTN_SANITIZE=address tree in build-asan/, builds the
#    fault-injection, recovery, circuit, network-sim, onion-routing, and
#    contact-model test targets, and runs `ctest -L faults`,
#    `ctest -L recovery`, `ctest -L circuit`, and the network_sim_test,
#    traffic_sim_test, route_digest_test, single_copy_test,
#    multi_copy_test, contact_query_property_test, contact_model_test,
#    backend_equivalence_test, sparse_graph_test, and args_test binaries
#    under ASan.
# 6. Configures a -DODTN_SANITIZE=undefined tree in build-ubsan/, builds
#    the analysis + crypto test targets (the numeric and bit-twiddling
#    code most prone to UB), and runs `ctest -L ubsan` under UBSan.
#
# Exits non-zero on the first failure.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-2}"

echo "== tier-1: configure + build (${jobs} jobs) =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: full test suite =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo "== metrics suite (ctest -L metrics) =="
ctest --test-dir "$repo/build" -L metrics --output-on-failure -j "$jobs"

echo "== traffic suite (ctest -L traffic) =="
ctest --test-dir "$repo/build" -L traffic --output-on-failure -j "$jobs"

echo "== recovery suite (ctest -L recovery) =="
ctest --test-dir "$repo/build" -L recovery --output-on-failure -j "$jobs"

echo "== circuit suite (ctest -L circuit) =="
ctest --test-dir "$repo/build" -L circuit --output-on-failure -j "$jobs"

echo "== wire-mode byte-identity smoke check =="
# --wire-cells fragments every contact crossing into sealed cells; the run
# must stay bit-identical across thread counts like every other mode.
wire="$repo/build/ci-wire-smoke"
rm -rf "$wire" && mkdir -p "$wire"
"$repo/build/tools/odtn" simulate --runs=12 --n=30 --seed=11 --wire-cells \
    --metrics-out="$wire/t1.jsonl" > "$wire/t1.txt"
"$repo/build/tools/odtn" simulate --runs=12 --n=30 --seed=11 --wire-cells \
    --threads=4 --metrics-out="$wire/t4.jsonl" > "$wire/t4.txt"
grep -v -e '^# wall_time_s' -e '^# metrics:' "$wire/t1.txt" > "$wire/t1.stable"
grep -v -e '^# wall_time_s' -e '^# metrics:' "$wire/t4.txt" > "$wire/t4.stable"
cmp "$wire/t1.stable" "$wire/t4.stable"
cmp "$wire/t1.jsonl" "$wire/t4.jsonl"
echo "wire-mode output byte-identical across thread counts"

echo "== checkpoint/resume byte-identity smoke check =="
smoke="$repo/build/ci-checkpoint-smoke"
rm -rf "$smoke" && mkdir -p "$smoke"
cli="$repo/build/tools/odtn"
# Reference: one uninterrupted faulty sweep.
"$cli" simulate --runs=24 --n=30 --seed=11 --fault-p-fail=0.1 \
    --fault-mean-uptime=300 --fault-mean-downtime=40 \
    --metrics-out="$smoke/ref.jsonl" > "$smoke/ref.txt"
# Same sweep "killed" after 10 runs, then resumed at a different thread
# count; stdout and metrics export must match the reference exactly.
# (--metrics-out on both legs: metric collection is part of the config hash.)
"$cli" simulate --runs=10 --n=30 --seed=11 --fault-p-fail=0.1 \
    --fault-mean-uptime=300 --fault-mean-downtime=40 \
    --metrics-out="$smoke/partial.jsonl" \
    --checkpoint="$smoke/cp" --checkpoint-interval=4 > /dev/null
"$cli" simulate --runs=24 --n=30 --seed=11 --fault-p-fail=0.1 \
    --fault-mean-uptime=300 --fault-mean-downtime=40 \
    --checkpoint="$smoke/cp" --checkpoint-interval=4 --resume --threads=4 \
    --metrics-out="$smoke/resumed.jsonl" > "$smoke/resumed.txt"
# Strip the wall-clock and metrics-path echo lines before comparing stdout.
grep -v -e '^# wall_time_s' -e '^# metrics:' "$smoke/ref.txt" > "$smoke/ref.stable"
grep -v -e '^# wall_time_s' -e '^# metrics:' "$smoke/resumed.txt" > "$smoke/resumed.stable"
cmp "$smoke/ref.stable" "$smoke/resumed.stable"
cmp "$smoke/ref.jsonl" "$smoke/resumed.jsonl"
echo "checkpoint/resume output byte-identical"
# Negative leg: a checkpoint is bound to the contact data it folded. A
# streamed-trace sweep resumed against a different --trace must fail.
"$cli" gen-trace --kind=poisson --nodes=30 --seed=1 --horizon=2000 \
    --out="$smoke/t1.txt" > /dev/null
"$cli" gen-trace --kind=poisson --nodes=30 --seed=2 --horizon=2000 \
    --out="$smoke/t2.txt" > /dev/null
"$cli" simulate --contact-backend=sparse --trace="$smoke/t1.txt" \
    --trace-nodes=30 --runs=10 --checkpoint="$smoke/trace-cp" > /dev/null
if "$cli" simulate --contact-backend=sparse --trace="$smoke/t2.txt" \
    --trace-nodes=30 --runs=20 --checkpoint="$smoke/trace-cp" --resume \
    > /dev/null 2>&1; then
    echo "resume against a different --trace was accepted" >&2
    exit 1
fi
echo "resume against a different trace refused"

echo "== contact-query byte-identity suite (ctest -L contact_query) =="
ctest --test-dir "$repo/build" -L contact_query --output-on-failure -j "$jobs"

echo "== scale suite (ctest -L scale) =="
ctest --test-dir "$repo/build" -L scale --output-on-failure -j "$jobs"

echo "== scale smoke: fig_scale at n=1e5 on the sparse backend =="
# One 100k-node point on the sparse backend. --max-bytes-per-node makes
# fig_scale itself fail (exit 1) if the CSR contact structure stops being
# O(degree) per node — the memory property that opens the 10^6-node regime.
"$repo/build/bench/fig_scale" --n-list=100000 --runs=2 --threads="$jobs" \
    --max-bytes-per-node=256 > /dev/null
echo "scale smoke within memory bound"

echo "== sustained-load smoke: n=1e4 sparse backend under offered load =="
# Budgeted contact drainage (finite bandwidth + finite buffers + spray
# replication) at 10^4 nodes must stay interactive: ~2 s today, bounded
# at 120 s so a superlinear regression in the queueing path fails CI.
load_start=$(date +%s)
"$cli" simulate --n=10000 --contact-backend=sparse --avg-degree=12 \
    --group-shards=64 --runs=2 --threads="$jobs" --seed=3 --L=8 \
    --traffic-rate=2 --traffic-horizon=300 --bandwidth-capacity=2 \
    --buffer-capacity=8 --load-forwarder=utility > /dev/null
load_elapsed=$(( $(date +%s) - load_start ))
if [ "$load_elapsed" -gt 120 ]; then
    echo "sustained-load smoke took ${load_elapsed}s (bound 120s)" >&2
    exit 1
fi
echo "sustained-load smoke within wall-time bound (${load_elapsed}s)"

echo "== perf smoke: micro_sim hot paths vs BENCH_micro_sim.json =="
# Medians over 5 repetitions of the gate benchmarks (routing, the engine,
# and the loaded workload/queueing path); micro_sim exits non-zero when
# any regresses more than 20% against the committed baseline. Noise-prone
# under load — rerun pinned (taskset -c 0) before treating a failure as
# real.
"$repo/build/bench/micro_sim" \
    --benchmark_filter='^BM_MultiCopyRoute/3$|^BM_ExperimentRun$|^BM_TrafficGen/10$|^BM_LoadedSimStep$|^BM_RecoveryStep$|^BM_WireSimStep$' \
    --benchmark_repetitions=5 \
    --baseline="$repo/BENCH_micro_sim.json" --max-regression-pct=20 \
    > /dev/null
echo "perf smoke within budget"

echo "== perf smoke: micro_crypto per-forward costs vs BENCH_micro_crypto.json =="
# Same gate over the crypto substrate (the per-forward cost a deployment
# pays). Crypto microbenches are noisier at the ~10us scale, hence the
# wider 25% band.
"$repo/build/bench/micro_crypto" \
    --benchmark_filter='^BM_HmacSha256$|^BM_X25519$|^BM_OnionBuild/3$|^BM_OnionPeel$|^BM_CellSeal/512$|^BM_CircuitExtend/1$' \
    --benchmark_repetitions=5 \
    --baseline="$repo/BENCH_micro_crypto.json" --max-regression-pct=25 \
    > /dev/null
echo "crypto perf smoke within budget"

echo "== lint: odtn_lint over src/ bench/ tools/ =="
"$repo/build/tools/odtn_lint" "$repo/src" "$repo/bench" "$repo/tools"

echo "== lint: fixture suite (ctest -L lint) =="
ctest --test-dir "$repo/build" -L lint --output-on-failure -j "$jobs"

echo "== clang-tidy: .clang-tidy baseline over src/ =="
if command -v clang-tidy > /dev/null 2>&1; then
    # compile_commands.json is exported by the tier-1 configure above.
    find "$repo/src" -name '*.cpp' | xargs clang-tidy -p "$repo/build" --quiet
    echo "clang-tidy clean"
else
    echo "clang-tidy not installed; skipping the clang-tidy stage" \
         "(install clang-tidy to enable it)"
fi

echo "== tsan: configure + build labelled test targets =="
cmake -B "$repo/build-tsan" -S "$repo" -DODTN_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs" --target \
    thread_pool_test experiment_test contact_model_test network_sim_test \
    metrics_determinism_test

echo "== tsan: ctest -L tsan =="
ctest --test-dir "$repo/build-tsan" -L tsan --output-on-failure -j "$jobs"

echo "== asan: configure + build fault, recovery, circuit, sim, routing, contact-model test targets =="
cmake -B "$repo/build-asan" -S "$repo" -DODTN_SANITIZE=address
cmake --build "$repo/build-asan" -j "$jobs" --target \
    faults_test fault_sim_test fault_experiment_test \
    recovery_unit_test recovery_sim_test recovery_experiment_test \
    cell_test circuit_manager_test wire_parity_test \
    network_sim_test traffic_sim_test \
    route_digest_test single_copy_test multi_copy_test \
    contact_query_property_test contact_model_test backend_equivalence_test \
    sparse_graph_test args_test

echo "== asan: ctest -L faults =="
# Includes fault_experiment_test: the checkpoint parser and the trace-data
# digest of the checkpoint scenario tag.
ctest --test-dir "$repo/build-asan" -L faults --output-on-failure -j "$jobs"

echo "== asan: ctest -L recovery =="
ctest --test-dir "$repo/build-asan" -L recovery --output-on-failure -j "$jobs"

echo "== asan: ctest -L circuit =="
ctest --test-dir "$repo/build-asan" -L circuit --output-on-failure -j "$jobs"

echo "== asan: network_sim_test + traffic_sim_test =="
# The hand-off code holds Copy references next to copy creation, which
# may reallocate the copy table; ASan is where a stale reference shows.
# Run as binaries: their ctest labels (tsan, traffic) also name suites
# this tree does not build.
"$repo/build-asan/tests/sim/network_sim_test"
"$repo/build-asan/tests/traffic/traffic_sim_test"

echo "== asan: route_digest_test + single_copy_test + multi_copy_test =="
# The onion walker's context and generation bookkeeping: an uninitialized
# OnionContext field once passed every plain build and failed only here.
"$repo/build-asan/tests/routing/route_digest_test"
"$repo/build-asan/tests/routing/single_copy_test"
"$repo/build-asan/tests/routing/multi_copy_test"

echo "== asan: contact-model plan builder (both backends, both plan kinds) =="
# One templated builder indexes four node-id stamp arrays for both rate
# backends and both plan kinds; an id that slips past the bounds check
# shows here first.
"$repo/build-asan/tests/contact_query/contact_query_property_test"
"$repo/build-asan/tests/sim/contact_model_test"
"$repo/build-asan/tests/scale/backend_equivalence_test"
"$repo/build-asan/tests/scale/sparse_graph_test"

echo "== asan: args_test (strict flag parsing) =="
"$repo/build-asan/tests/util/args_test"

echo "== ubsan: configure + build analysis + crypto test targets =="
cmake -B "$repo/build-ubsan" -S "$repo" -DODTN_SANITIZE=undefined
cmake --build "$repo/build-ubsan" -j "$jobs" --target \
    hypoexp_test delivery_test cost_test traceable_test anonymity_test \
    goodness_of_fit_test sha256_test hmac_test chacha20_test poly1305_test \
    aead_test x25519_test drbg_test shamir_test

echo "== ubsan: ctest -L ubsan =="
ctest --test-dir "$repo/build-ubsan" -L ubsan --output-on-failure -j "$jobs"

echo "== ci.sh: all green =="
