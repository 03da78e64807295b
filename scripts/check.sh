#!/bin/sh
# Sanitizer gate for the concurrent code paths. Builds the tree three
# times (ThreadSanitizer, AddressSanitizer, then
# UndefinedBehaviorSanitizer) into dedicated build directories and
# runs the suites that exercise real threads: the
# serving runtime (worker pool, dynamic batcher, bounded queue), the
# LoadGen (asynchronous completion / run teardown), the executors,
# the logging concurrency test, the compute substrate (intra-op
# thread pool, scratch arena, parallel GEMM/conv kernels), and the
# compiled execution runtime (concurrent ExecutionInstances sharing
# one CompiledModel, plan cache, graph passes, memory planner, and
# concurrent readers streaming the shared prepacked constant section),
# plus the NCHWc direct-convolution kernels and the layout-propagation
# pass that routes compiled convs onto them, the SLO autoscaler's
# elastic grow/shrink paths, the trace-driven arrival generators, the
# measurement audits (coordinated omission / warm-up), and the
# continuous batcher's decode loop (lock-free admission ring, threaded
# churn, lane routing) with the streaming TokenStream scenario, and
# the LSTM cell whose gate projections run on the prepacked GEMM's
# row-tail kernel.
#
# `scripts/check.sh tier1` is the fast feedback path instead: a plain
# build plus `ctest -L tier1`, skipping the expensive model and
# end-to-end suites.
#
# Usage: scripts/check.sh [tsan|asan|ubsan|all|tier1]   (default: all)
set -e
cd "$(dirname "$0")/.."

MODE="${1:-all}"
case "$MODE" in
    tsan|asan|ubsan|all|tier1) ;;
    *) echo "usage: scripts/check.sh [tsan|asan|ubsan|all|tier1]" >&2; exit 2 ;;
esac
GENERATOR=""
command -v ninja > /dev/null 2>&1 && GENERATOR="-G Ninja"

run_suite() {
    build_dir="$1"
    ctest --test-dir "$build_dir" --output-on-failure \
          -R 'BoundedQueue|DynamicBatcher|ThreadWorkerPool|EventWorkerPool|ServingSut|HarnessServing|ProfileBatchInference|CircuitBreaker|AdmissionController|ResilientInference|CompletionTracker|FaultInjecting|LoadGen|Scenario|Server|Offline|RealExecutor|VirtualExecutor|Logging|ThreadPool|ScratchArena|GemmParallel|ConvParallel|GemmInt8|GemmPrepacked|Int8Prepacked|CompiledModel|ModelGraph|MemoryPlanner|ModelRegistry|DagPipeline|ServingPlatform|TenantSut|MultiTenantServing|MpscRing|ShardRouting|ShardedWorkerPool|ServingSutSharded|ShardedPlatform|ServingStats|BoundedQueuePopFor|ConvDirect|NchwcLayout|LayoutPropagation|Ewma|HysteresisLatch|ShardAutoscaler|ElasticShards|AutoscaledServingSut|TraceArrivals|BurstyArrivalProperties|MeasurementAudit|ParseRecordedTrace|ContinuousBatcher|DecoderEngine|DecoderModel|DecodeStatePool|TokenStream|LSTMCell'
}

if [ "$MODE" = "tier1" ]; then
    echo "==> tier1 fast path"
    cmake -B build $GENERATOR
    cmake --build build -j
    ctest --test-dir build --output-on-failure -L tier1
    echo "check.sh: OK (tier1)"
    exit 0
fi

if [ "$MODE" = "tsan" ] || [ "$MODE" = "all" ]; then
    echo "==> ThreadSanitizer build"
    cmake -B build-tsan $GENERATOR \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
          -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan --target \
          test_serving test_shard test_resilience test_tenancy test_loadgen test_audit test_sim test_common \
          test_tensor test_quant test_nn test_decode
    TSAN_OPTIONS="halt_on_error=1" run_suite build-tsan
fi

if [ "$MODE" = "asan" ] || [ "$MODE" = "all" ]; then
    echo "==> AddressSanitizer build"
    cmake -B build-asan $GENERATOR \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
          -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
    cmake --build build-asan --target \
          test_serving test_shard test_resilience test_tenancy test_loadgen test_audit test_sim test_common \
          test_tensor test_quant test_nn test_decode
    run_suite build-asan
fi

if [ "$MODE" = "ubsan" ] || [ "$MODE" = "all" ]; then
    echo "==> UndefinedBehaviorSanitizer build"
    cmake -B build-ubsan $GENERATOR \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer" \
          -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
    cmake --build build-ubsan --target \
          test_serving test_shard test_resilience test_tenancy test_loadgen test_audit test_sim test_common \
          test_tensor test_quant test_nn test_decode
    run_suite build-ubsan
fi

echo "check.sh: OK ($MODE)"
