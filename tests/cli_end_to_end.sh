#!/usr/bin/env bash
# Runs the four commands end to end and checks what they write.
#
# Usage: tests/cli_end_to_end.sh COMMAND...
#   tests/cli_end_to_end.sh bugsize              # the installed console script
#   tests/cli_end_to_end.sh python -m bugsize    # a source checkout
#
# Checks: a default fit records the three posterior quantities only; the
# default burn-in is half of --iters, at most 200 sweeps; diagnose and
# reliability read the fit; a pooled fit writes the serial fit's draws and
# report byte for byte.  Exits non-zero at the first failure.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
bugsize=("$@")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"${bugsize[@]}" simulate --missions 6 --phases 3 --true-bugs 20 --max-bugs 80 --seed 1 --out "$out"
"${bugsize[@]}" fit "$out/campaign.csv" --iters 200 --max-bugs 80 --seed 2 --out "$out"
# a default fit records the three posterior quantities and nothing per candidate
params=$(grep -v '^#' "$out/draws.csv" | tail -n +2 | cut -d, -f3 | sort -u | tr '\n' ' ')
test "$params" = "inclusion_prob remaining_size total_bugs "
# the default burn-in is half of --iters, at most 200 sweeps
grep -qx '# meta chains=3 iterations=200 burn_in=100 thin=1 base_seed=2' "$out/draws.csv"
"${bugsize[@]}" fit "$out/campaign.csv" --iters 1000 --max-bugs 80 --seed 2 --out "$out/long"
grep -qx '# meta chains=3 iterations=1000 burn_in=200 thin=1 base_seed=2' "$out/long/draws.csv"
"${bugsize[@]}" diagnose "$out/draws.csv" --out "$out"
"${bugsize[@]}" reliability "$out/draws.csv" --epsilon 50,100,200 --out "$out"

# 3 chains on 2 workers hand each chain between workers; 4 on 2 run whole chains
for chains in 3 4; do
  for threads in 1 2; do
    "${bugsize[@]}" fit "$out/campaign.csv" --chains "$chains" --threads "$threads" \
      --iters 200 --max-bugs 80 --seed 2 --out "$out/chains-$chains-threads-$threads"
  done
  cmp "$out/chains-$chains-threads-1/draws.csv" "$out/chains-$chains-threads-2/draws.csv"
  cmp "$out/chains-$chains-threads-1/report.json" "$out/chains-$chains-threads-2/report.json"
done
