#!/usr/bin/env bash
# Local CI: build + ctest across the sanitizer matrix.
#
#   scripts/check.sh              # release asan ubsan tsan scalar nn-node batch-scalar search-heap service suite
#   scripts/check.sh release asan # just those variants
#
# Each variant uses its own build tree (build-check-<variant>) so the
# trees stay warm across runs. TSan runs the thread-focused suites
# (Parallel/Telemetry/Service/Mpmc, plus Raycast/CastScan for the ray
# batch's parallelForChunks) — the full suite under TSan is slow and the
# remaining tests are single-threaded by construction. The scalar
# variant builds with -DRTR_FORCE_SCALAR_SIMD=ON so the portable
# fallback of rtr::simd::VecD (the code path non-x86/ARM hosts compile)
# stays green. The nn-node variant reruns the full suite with
# RTR_NN_ENGINE=node so the reference nearest-neighbor engine (the
# default is the leaf-bucketed one) stays green too; it reuses the
# release build tree. The batch-scalar variant does the same with
# RTR_BATCH_ENGINE=scalar, keeping the reference rollout engine (the
# default is the SoA batch engine) green. The search-heap variant does
# the same for the reference graph-search engine (the default is the
# flat SoA + d-ary one): the full suite with RTR_SEARCH=heap in the Release
# tree, plus the search-touching service/thread suites in the TSan
# tree, since the service workers plan concurrently whichever engine
# is selected. The service variant smokes
# the planning-as-a-service runtime end to end: the service/MPMC test
# suites and the FootprintPlanes oracle (the World's validity planes)
# plus a bench_service run (its determinism replay exits 2 on
# any divergence) in both the Release and TSan trees. The suite variant
# runs the suite benchmark (suitebench/run.py, which builds its own tree
# under .bench_build/) the way BENCHMARK.json does: kernels-1t and
# kernels-mt for 3 s and service-open for the full 30 s (shorter
# service runs often fall behind their arrival schedule and exit 3),
# each untraced and traced. It fails on a build error, on any exit
# status other than 0 or 3, on a result with failed > 0, or on a traced
# result that dropped trace events. Exit 3 marks an invalid run (for
# example generator lag): the reason is printed and the run retried
# once.

set -euo pipefail
cd "$(dirname "$0")/.."

variants=("$@")
if [ ${#variants[@]} -eq 0 ]; then
    variants=(release asan ubsan tsan scalar nn-node batch-scalar search-heap service suite)
fi

jobs=$(nproc 2>/dev/null || echo 4)

for variant in "${variants[@]}"; do
    if [ "${variant}" = "search-heap" ]; then
        for mode in release tsan; do
            hdir="build-check-${mode}"
            hcmake=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
            htest=(--output-on-failure -j "${jobs}")
            [ "${mode}" = "tsan" ] && hcmake+=(-DRTR_TSAN=ON) \
                && htest+=(-R 'Parallel|Telemetry|Service|Mpmc')
            echo "==== search-heap: configure + build (${hdir}) ===="
            cmake -B "${hdir}" -S . "${hcmake[@]}" > /dev/null
            cmake --build "${hdir}" -j "${jobs}"
            echo "==== search-heap: ctest (${mode}) ===="
            env RTR_SEARCH=heap ctest --test-dir "${hdir}" \
                "${htest[@]}"
        done
        continue
    fi
    if [ "${variant}" = "suite" ]; then
        logs=".bench_build/check-suite"
        mkdir -p "${logs}"
        for workload in kernels-1t kernels-mt service-open; do
            seconds=3
            [ "${workload}" = "service-open" ] && seconds=30
            for trace in 0 1; do
                out="${logs}/${workload}-trace${trace}.out"
                err="${logs}/${workload}-trace${trace}.err"
                for attempt in 1 2; do
                    echo "==== suite: ${workload} --trace ${trace}" \
                         "(attempt ${attempt}) ===="
                    status=0
                    python3 suitebench/run.py --offered-rps 36000 \
                        --workload "${workload}" --seed 1 \
                        --seconds "${seconds}" --trace "${trace}" \
                        > "${out}" 2> "${err}" || status=$?
                    [ "${status}" -ne 3 ] && break
                    echo "suite: invalid run (exit 3):" \
                         "$(grep 'invalid run' "${err}" | tail -n 1)"
                done
                if [ "${status}" -ne 0 ]; then
                    tail -n 20 "${err}" >&2
                    echo "suite: ${workload} --trace ${trace} exited" \
                         "${status}" >&2
                    exit 1
                fi
                tail -n 1 "${out}" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
dropped = result["metrics"].get("bench.trace_dropped", {}).get("value", 0)
print("suite: attempted %d, failed %d, trace_dropped %d"
      % (result["attempted"], result["failed"], dropped))
sys.exit(1 if result["failed"] > 0 or dropped > 0 else 0)'
            done
        done
        continue
    fi
    if [ "${variant}" = "service" ]; then
        for mode in release tsan; do
            sdir="build-check-${mode}"
            scmake=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
            [ "${mode}" = "tsan" ] && scmake+=(-DRTR_TSAN=ON)
            echo "==== service: configure + build (${sdir}) ===="
            cmake -B "${sdir}" -S . "${scmake[@]}" > /dev/null
            cmake --build "${sdir}" -j "${jobs}"
            echo "==== service: ctest (${mode}) ===="
            ctest --test-dir "${sdir}" --output-on-failure -j "${jobs}" \
                -R 'Service|Mpmc|FootprintPlanes'
            echo "==== service: bench_service smoke (${mode}) ===="
            "${sdir}/bench/bench_service" --requests 2000 \
                --json "${sdir}/BENCH_service_smoke.json"
        done
        continue
    fi

    dir="build-check-${variant}"
    cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
    test_args=(--output-on-failure -j "${jobs}")
    env_vars=()
    case "${variant}" in
      release) ;;
      nn-node) dir="build-check-release"
               env_vars=(RTR_NN_ENGINE=node) ;;
      batch-scalar) dir="build-check-release"
               env_vars=(RTR_BATCH_ENGINE=scalar) ;;
      asan)  cmake_args+=(-DRTR_ASAN=ON) ;;
      ubsan) cmake_args+=(-DRTR_UBSAN=ON) ;;
      tsan)  cmake_args+=(-DRTR_TSAN=ON)
             test_args+=(-R 'Parallel|Telemetry|Service|Mpmc|CastScan|Raycast') ;;
      scalar) cmake_args+=(-DRTR_FORCE_SCALAR_SIMD=ON) ;;
      *) echo "unknown variant '${variant}'" >&2; exit 2 ;;
    esac

    echo "==== ${variant}: configure + build (${dir}) ===="
    cmake -B "${dir}" -S . "${cmake_args[@]}" > /dev/null
    cmake --build "${dir}" -j "${jobs}"

    echo "==== ${variant}: ctest ===="
    env ${env_vars[@]+"${env_vars[@]}"} ctest --test-dir "${dir}" \
        "${test_args[@]}"
done

echo "==== all variants passed: ${variants[*]} ===="
