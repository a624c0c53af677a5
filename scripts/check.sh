#!/usr/bin/env bash
#
# Verification driver.
#
# Default (quick) mode: build the Release configuration and run every
# test except those labelled "long" or "perf" — a sub-minute signal
# suitable for the inner edit loop.
#
# --full: the pre-ship sweep. Runs the complete suite (including the
# long label) in the plain Release configuration, follows with the
# host-performance pass (label "perf": the micro_events event-engine
# bench, run serially and only in the unsanitized tree), then the
# strict perf-regression gate (3 repeats of each baselined bench,
# compared bit-for-bit and median-throughput against baselines/ via
# bench_compare; DESIGN.md §14), then the host-performance
# benchmark's scale-0 smoke test (hostbench/test_hostbench.py), then
# builds and runs everything again under AddressSanitizer + UBSan
# (CMPMEM_SANITIZE=ON; this includes the watchdog kills and error
# unwinding of test_robustness, where latent lifetime bugs hide), and
# finishes by running the sweep executor's suite (its worker pool is
# the one place host threads run) under ThreadSanitizer
# (CMPMEM_SANITIZE=thread). All passes must be green before a change
# ships.
#
# --update-baselines: regenerate baselines/BENCH_*.json from the
# current tree (Release, CMPMEM_SCALE=0, no iteration divisor) and
# stop. Run this deliberately when a reviewed change moves simulated
# stats, and commit the result.
#
# Usage: scripts/check.sh [--full | --update-baselines] [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."

# The benches with committed baselines; keep in step with the
# cmpmem_gate() entries in bench/CMakeLists.txt and DESIGN.md §14.
gate_benches="micro_events micro_access micro_miss micro_fabric table3 fig2_scaling fig3_traffic"

full=0
update=0
jobs="$(nproc)"
for arg in "$@"; do
    case "${arg}" in
        --full) full=1 ;;
        --update-baselines) update=1 ;;
        [0-9]*) jobs="${arg}" ;;
        *)
            echo "usage: scripts/check.sh [--full | --update-baselines] [jobs]" >&2
            exit 2
            ;;
    esac
done

# The plain Release tree fails on any compiler warning (CMake >= 3.24;
# older CMake ignores the variable). The sanitizer trees do not.
release=(-DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON)

run_config() {
    local dir="$1"
    local label_args="$2"
    shift 2
    echo "==> configuring ${dir} ($*)"
    cmake -S . -B "${dir}" -G Ninja "$@" >/dev/null
    echo "==> building ${dir}"
    cmake --build "${dir}" -j "${jobs}"
    echo "==> testing ${dir}"
    # shellcheck disable=SC2086  # label_args is intentionally a list
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" \
        ${label_args}
}

# Run one baselined bench at the pinned deterministic sizing
# (CMPMEM_SCALE=0, divisor 1), writing its artifact into $2.
run_bench_pinned() {
    local bench="$1"
    local dir="$2"
    mkdir -p "${dir}"
    CMPMEM_SCALE=0 CMPMEM_BENCH_SCALE=1 CMPMEM_ARTIFACT_DIR="${dir}" \
        "build/bench/${bench}" >/dev/null
}

if [[ "${update}" -eq 1 ]]; then
    echo "==> regenerating baselines/ (Release, CMPMEM_SCALE=0)"
    cmake -S . -B build -G Ninja "${release[@]}" >/dev/null
    cmake --build build -j "${jobs}"
    for bench in ${gate_benches}; do
        run_bench_pinned "${bench}" baselines
        echo "    baselines/BENCH_${bench}.json"
    done
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git add -A baselines
        echo "==> staged baseline changes:"
        git --no-pager diff --cached --stat -- baselines
        echo "==> review the per-metric diff and commit deliberately"
        echo "    (remember matching golden digests in tests/test_golden.cc)"
    fi
    exit 0
fi

if [[ "${full}" -eq 1 ]]; then
    run_config build "-LE perf" "${release[@]}"
    echo "==> host-performance pass (Release, label perf)"
    # Serial, in the plain Release tree only: events/sec from a
    # sanitized or contended run would be meaningless. The gate_*
    # entries run in warn host mode here; the strict pass follows.
    ctest --test-dir build --output-on-failure -L perf
    echo "==> perf-regression gate (strict, 3 repeats per bench)"
    for bench in ${gate_benches}; do
        gate_dir="build/gate/${bench}"
        rm -rf "${gate_dir}"
        fresh=()
        for r in 1 2 3; do
            run_bench_pinned "${bench}" "${gate_dir}/r${r}"
            fresh+=("${gate_dir}/r${r}/BENCH_${bench}.json")
        done
        build/bench/bench_compare --host-mode=strict --annotate \
            "baselines/BENCH_${bench}.json" "${fresh[@]}"
    done
    echo "==> hostbench smoke test (scale 0)"
    # Builds the host-performance benchmark into .bench_build/ and
    # checks its result line, traced attribution and failure paths.
    python3 hostbench/test_hostbench.py
    run_config build-sanitize "-LE perf" -DCMAKE_BUILD_TYPE=Release \
        -DCMPMEM_SANITIZE=ON
    echo "==> thread-sanitizer pass (sweep executor)"
    # TSan and ASan cannot share a build; a third tree covers the one
    # suite that actually runs host threads: the inter-job sweep pool
    # (DESIGN.md §10).
    cmake -S . -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Release \
        -DCMPMEM_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "${jobs}"
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
        -R test_sweep
    echo "==> all configurations green"
else
    run_config build "-LE long|perf" "${release[@]}"
    echo "==> quick suite green (use --full before shipping)"
fi
