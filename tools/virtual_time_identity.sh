#!/bin/sh
# Virtual-time identity check: runs the benches whose outputs are pure
# virtual time from two builds and compares every output byte for byte.
#
#   tools/virtual_time_identity.sh BASE_BUILD HEAD_BUILD OUT_DIR
#
# BASE_BUILD and HEAD_BUILD are CMake build directories (same build type)
# with the bench targets built. Outputs land in OUT_DIR/base and
# OUT_DIR/head; the differing ones are listed in OUT_DIR/differences.txt.
# Exits 1 when any output differs, 2 when a bench run fails.
set -u

if [ "$#" -ne 3 ]; then
  echo "usage: $0 BASE_BUILD HEAD_BUILD OUT_DIR" >&2
  exit 2
fi
base_build=$1
head_build=$2
out=$3
mkdir -p "$out/base" "$out/head"
: > "$out/differences.txt"

# name|binary|args. Benches with an obs session also write a trace (and its
# Chrome export) and a metrics snapshot; every bench's stdout is compared.
runs='fig8_checkpoint|fig8_checkpoint|--obs
ablation_compression|ablation_compression|--obs
rejoin_resync|rejoin_resync|--obs
chaos_failover|chaos_failover|--obs
fleet_scale|fleet_scale|--obs
fleet_scale_100|fleet_scale|--obs --vms=100
corruption_sweep|corruption_sweep|--obs
fig9_dynamic_period|fig9_dynamic_period|--obs
fig5_linear_model|fig5_linear_model|
fig6_migration|fig6_migration|
fig7_resumption|fig7_resumption|
fig10_ycsb_period|fig10_ycsb_period|
fig17_sockperf|fig17_sockperf|
sec82_security|sec82_security|
sec87_overhead|sec87_overhead|
ablation_threads|ablation_threads|
ablation_cow|ablation_cow|'

status=0
for side in base head; do
  if [ "$side" = base ]; then build=$base_build; else build=$head_build; fi
  echo "$runs" | while IFS='|' read -r name bin args; do
    dir="$out/$side"
    set -- $args
    obs=
    if [ "${1:-}" = --obs ]; then
      shift
      obs="--trace-out=$dir/$name.trace.jsonl --metrics-out=$dir/$name.metrics.json"
    fi
    # shellcheck disable=SC2086
    if ! "$build/bench/$bin" $obs "$@" > "$dir/$name.stdout"; then
      echo "$side: $name failed" >&2
      exit 2
    fi
  done || status=2
done
[ "$status" -eq 0 ] || exit "$status"

for f in "$out/base"/*; do
  name=$(basename "$f")
  if ! cmp -s "$f" "$out/head/$name"; then
    echo "$name" >> "$out/differences.txt"
  fi
done
if [ -s "$out/differences.txt" ]; then
  echo "virtual-time outputs differ:"
  cat "$out/differences.txt"
  exit 1
fi
echo "all $(ls "$out/base" | wc -l) outputs identical"
