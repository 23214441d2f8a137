#!/bin/sh
# Desk-scale versions of the two headline sweeps, written into out/.
# Single-threaded on a 2-vCPU Xeon they took 12-15 s, 5-6 s and under 1 s, in
# the order below; pass a thread count as $1.
set -e
threads="${1:-1}"
mkdir -p out
sketchbench distortion-sweep --profile desk --seed 42 \
    --out out/desk_distortion.csv --threads "$threads"
sketchbench lowrank-sweep --profile desk-lowrank --seed 42 \
    --out out/desk_lowrank.csv --threads "$threads"
sketchbench magical-delta --config scripts/magical_delta_desk.cfg \
    --out out/desk_magical_delta.csv
echo "wrote out/desk_distortion.csv out/desk_lowrank.csv out/desk_magical_delta.csv"
