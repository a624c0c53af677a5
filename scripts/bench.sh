#!/usr/bin/env bash
#
# Build and run the full figure/table suite on the sweep engine and
# collect the machine-readable artifacts (BENCH_<name>.json) at the
# repository root.
#
# Knobs (environment):
#   CMPMEM_SCALE     workload scale factor (default 1; 0 = smoke size)
#   CMPMEM_JOBS      sweep worker count (default: hardware concurrency)
#
# Usage: scripts/bench.sh [jobs]
#        (jobs = build parallelism)

set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
jobs="$(nproc)"
for arg in "$@"; do
    case "${arg}" in
        [0-9]*) jobs="${arg}" ;;
        *)
            echo "usage: scripts/bench.sh [jobs]" >&2
            exit 2
            ;;
    esac
done

benches=(
    table3
    fig2_scaling
    fig3_traffic
    fig4_energy
    fig5_comp_throughput
    fig6_bandwidth
    fig7_prefetch
    fig8_pfs
    fig9_stream_opt_mpeg2
    fig10_stream_opt_art
    ablation_quantum
    ablation_interconnect
    ablation_dram
    ablation_hybrid
    micro_events
    micro_access
    micro_miss
    micro_fabric
)

echo "==> configuring build"
cmake -S . -B build -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> building bench suite"
cmake --build build -j "${jobs}" --target "${benches[@]}" bench_compare

export CMPMEM_ARTIFACT_DIR="${root}"
for b in "${benches[@]}"; do
    echo
    echo "==> ${b}"
    "build/bench/${b}"
done

echo
echo "==> artifacts:"
ls -l "${root}"/BENCH_*.json

# Compare against the committed baselines where one exists and the
# sizing matches (baselines are pinned at CMPMEM_SCALE=0 with no
# iteration divisor — the gate refuses cross-sizing diffs, so skip
# rather than fail a full-scale run). Host throughput is warn-only
# here: bench.sh runs at whatever scale the caller picked on
# whatever machine this is; the strict gate is scripts/check.sh
# --full.
if [[ "${CMPMEM_SCALE:-1}" == "0" && "${CMPMEM_BENCH_SCALE:-1}" == "1" ]]
then
    echo
    echo "==> comparing against baselines/ (warn host mode)"
    for b in "${benches[@]}"; do
        baseline="baselines/BENCH_${b}.json"
        [[ -f "${baseline}" ]] || continue
        build/bench/bench_compare --host-mode=warn --annotate \
            "${baseline}" "${root}/BENCH_${b}.json"
    done
else
    echo "==> skipping baseline comparison (sizing differs from the"
    echo "    pinned baseline config; see DESIGN.md §14)"
fi

# One-line host-throughput aggregate across every job in every
# artifact, for eyeballing the trajectory PR over PR.
python3 - "${root}"/BENCH_*.json <<'EOF'
import json, sys

host = events = accesses = 0.0
jobs = 0
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    for job in doc.get("results", []):
        if not job.get("ran"):
            continue
        jobs += 1
        secs = job.get("host_seconds", 0.0)
        host += secs
        events += job.get("events_per_sec", 0.0) * secs
        accesses += job.get("accesses_per_sec", 0.0) * secs
if host > 0:
    print(f"==> summary: {jobs} jobs, {host:.1f} s host CPU, "
          f"{events / host:.3g} events/sec, "
          f"{accesses / host:.3g} accesses/sec (host-time weighted)")
EOF
