#!/usr/bin/env bash
# Every workload, untraced then traced, for one seed; prints each metric
# with its unit.  Run from the repository root:
#   bash bench/run_all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-20}
for workload in analytic-grid oracle-ground oracle-ladder cli-verify; do
    for traced in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$traced" | grep '^#'
    done
done
