#!/usr/bin/env bash
# Runs the four commands end to end and checks what they write.
#
# Usage: tests/cli_end_to_end.sh COMMAND...
#   tests/cli_end_to_end.sh bugsize              # the installed console script
#   tests/cli_end_to_end.sh python -m bugsize    # a source checkout
#
# Checks: a default fit's draws name exactly inclusion_prob, total_bugs and
# remaining_size, in that order, and nothing per candidate; the default
# burn-in is half of --iters, at most 200 sweeps; diagnose prints
# report.json's R-hat, upper bound and ESS for every parameter; reliability
# reads the fit, and prints thresholds 0.01 and 0.04 as reliability.csv writes
# them, so the two print apart; reliability, diagnose and fit --threads 1
# import neither numpy.ma nor concurrent.futures, nor bugsize.simulate;
# reliability and diagnose import neither json nor csv, and diagnose and fit
# import no bugsize.reliability; a fit at --nu 1000 (certain detection) writes
# no numpy RuntimeWarning; a --dispersion numpy cannot draw sizes from exits 1
# with an error that names it, the same stderr at --threads 1 and 2, and
# leaves no output directory; a campaign count past int64, a campaign line
# holding a 0xff byte (not UTF-8) and a draws file whose meta line claims
# 10^12 iterations each exit 1 with one error line naming the file, no
# traceback and no output directory; a campaign whose line 2 is blank and
# whose line 4 holds a bad count exits 1 naming line 4, and leaves no output
# directory; fit --nu 1_5 and simulate --t-max past int64 each exit 1 with one
# error line, no traceback and no output directory; fit --rhat-warn 1.1 exits
# 1 with one "unrecognized arguments" line, no traceback and no output
# directory, since the R-hat threshold is fixed at 1.1; a fit at --max-bugs
# 10^12, past any machine's memory, exits 1 with one error line that says so,
# no traceback and no output directory; a pooled fit writes the serial fit's
# draws and report byte for byte; two campaigns of different grids with the
# same detected count n and largest test-case count t_max fit to the same
# draws and report byte for byte; building the bundled flight campaign loads
# no numpy.random module that import numpy did not, a check that imports
# bugsize with COMMAND's interpreter when COMMAND is "PYTHON -m bugsize", else
# with python3.
# Exits non-zero at the first failure.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
bugsize=("$@")
python=python3
if [ "$#" -ge 3 ] && [ "$2" = -m ]; then python=$1; fi
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"${bugsize[@]}" simulate --missions 6 --phases 3 --true-bugs 20 --max-bugs 80 --seed 1 --out "$out"
"${bugsize[@]}" fit "$out/campaign.csv" --iters 200 --max-bugs 80 --seed 2 --out "$out"
# a default fit records the three posterior quantities, in this order, and
# nothing per candidate
params=$(grep -v '^#' "$out/draws.csv" | tail -n +2 | cut -d, -f3 | awk '!seen[$0]++' \
  | tr '\n' ' ')
if [ "$params" != "inclusion_prob total_bugs remaining_size " ]; then
  echo "a default fit's draws name $params" >&2
  exit 1
fi
# the default burn-in is half of --iters, at most 200 sweeps
grep -qx '# meta chains=3 iterations=200 burn_in=100 thin=1 base_seed=2' "$out/draws.csv"
"${bugsize[@]}" fit "$out/campaign.csv" --iters 1000 --max-bugs 80 --seed 2 --out "$out/long"
grep -qx '# meta chains=3 iterations=1000 burn_in=200 thin=1 base_seed=2' "$out/long/draws.csv"
"${bugsize[@]}" diagnose "$out/draws.csv" --out "$out" | tee "$out/diagnose.txt"
python3 - "$out/diagnose.txt" "$out/report.json" <<'EOF'
import json, sys

def agree(printed, value, decimals):
    # report.json writes nan and inf as null
    return printed in ("nan", "inf") if value is None else printed == f"{value:.{decimals}f}"

diagnose, report = sys.argv[1:]
params = json.load(open(report, encoding="utf-8"))["parameters"]
rows = {}
for line in open(diagnose, encoding="utf-8").read().splitlines()[1:]:
    fields = line.split()
    if len(fields) == 4 and fields[0] in params:
        rows[fields[0]] = fields[1:]
for name, p in params.items():
    assert name in rows, f"diagnose printed no row for {name}"
    checks = zip(rows[name], (p["rhat"], p["rhat_upper"], p["ess"]), (4, 4, 2))
    assert all(agree(*check) for check in checks), f"{name}: {rows[name]} against {p}"
EOF
"${bugsize[@]}" reliability "$out/draws.csv" --epsilon 50,100,200 --out "$out"
# the printed table shows each threshold as reliability.csv writes it
printed=$("${bugsize[@]}" reliability "$out/draws.csv" --epsilon 0.01,0.04 --out "$out/small" \
  | awk 'NR == 2 || NR == 3 {printf "%s ", $1}')
if [ "$printed" != "0.01 0.04 " ]; then
  echo "reliability --epsilon 0.01,0.04 printed thresholds $printed" >&2
  exit 1
fi

# reading a fit, or fitting serially, loads neither numpy.ma nor the process
# pool, and each command loads only the modules it runs: reliability and
# diagnose read no campaign and write no report (csv, json), none but simulate
# simulates, and diagnose computes no curve.  Names are matched whole, since
# numpy.matrixlib begins with the text "numpy.ma".  Each command's second word
# names its input file under $out
for command in "reliability draws.csv --epsilon 100" "diagnose draws.csv" \
    "fit campaign.csv --iters 20 --max-bugs 80 --threads 1"; do
  read -ra argv <<< "$command"
  argv[1]="$out/${argv[1]}"
  case "${argv[0]}" in
    reliability) unused='|bugsize\.simulate|json|csv' ;;
    diagnose) unused='|bugsize\.simulate|bugsize\.reliability|json|csv' ;;
    fit) unused='|bugsize\.simulate|bugsize\.reliability' ;;
  esac
  PYTHONPROFILEIMPORTTIME=1 "${bugsize[@]}" "${argv[@]}" \
    --out "$out/imports" 2> "$out/imports.txt" > /dev/null
  grep -Eq '\| +numpy$' "$out/imports.txt"  # the import profile was written
  if grep -E '\| +(numpy\.ma|concurrent\.futures'"$unused"')$' "$out/imports.txt"; then
    echo "${argv[0]} imports the module(s) above" >&2
    exit 1
  fi
done

# the bundled campaign is stored counts, so building it draws nothing.  numpy
# 1.x loads numpy.random with numpy itself and 2.x on first use, so only the
# modules added after import numpy count
"$python" - <<'EOF'
import sys

import numpy

before = set(sys.modules)
from bugsize.datasets import flight_software_campaign

flight_software_campaign()
added = sorted(name for name in set(sys.modules) - before
               if name == "numpy.random" or name.startswith("numpy.random."))
assert not added, f"building the bundled campaign loaded {added}"
EOF

# an infinite detection rate means certain detection, not a numpy warning
"${bugsize[@]}" fit "$out/campaign.csv" --iters 20 --max-bugs 80 --nu 1000 --threads 1 \
  --out "$out/nu" 2> "$out/nu.txt" > /dev/null
if grep RuntimeWarning "$out/nu.txt"; then
  echo "fit --nu 1000 wrote the warning(s) above" >&2
  exit 1
fi
# numpy cannot draw negative-binomial sizes at this dispersion; the error says
# which value, a serial and a pooled fit print the same error, and neither
# leaves the --out it made
for threads in 1 2; do
  code=0
  "${bugsize[@]}" fit "$out/campaign.csv" --iters 20 --max-bugs 80 --dispersion 1e-40 \
    --threads "$threads" --out "$out/dispersion" 2> "$out/dispersion-$threads.txt" \
    > /dev/null || code=$?
  test "$code" -eq 1
  grep -q '^bugsize: error: dispersion 1e-40 ' "$out/dispersion-$threads.txt"
  test ! -e "$out/dispersion"
done
cmp "$out/dispersion-1.txt" "$out/dispersion-2.txt"

# malformed input: a test_cases count past int64, a byte that is not UTF-8 at
# the end of line 2, and a meta line that claims more iterations than the file
# has rows (sized from it, the draws need 22 TiB)
sed 's/^M1,1,[0-9]*,/M1,1,99999999999999999999,/' "$out/campaign.csv" > "$out/huge.csv"
sed '2s/$/\xff/' "$out/campaign.csv" > "$out/bytes.csv"
sed 's/ iterations=200 / iterations=1000000000000 /' "$out/draws.csv" > "$out/claims.csv"
for command in "fit huge.csv --iters 20 --max-bugs 80" "fit bytes.csv --iters 20 --max-bugs 80" \
    "reliability claims.csv --epsilon 100"; do
  read -ra argv <<< "$command"
  argv[1]="$out/${argv[1]}"
  code=0
  "${bugsize[@]}" "${argv[@]}" --out "$out/malformed" 2> "$out/malformed.txt" > /dev/null \
    || code=$?
  if [ "$code" -ne 1 ] || [ "$(wc -l < "$out/malformed.txt")" -ne 1 ] \
      || ! grep -qF "bugsize: error: ${argv[1]}:" "$out/malformed.txt" \
      || grep -q Traceback "$out/malformed.txt" || [ -e "$out/malformed" ]; then
    echo "${argv[0]} ${argv[1]} exited $code with:" >&2
    cat "$out/malformed.txt" >&2
    exit 1
  fi
done

# a blank line counts: the bad count on line 4, after a blank line 2, is named as line 4
printf 'mission,phase,test_cases,bugs_detected\n\nM1,1,5,0\nM1,2,x,0\n' > "$out/blank.csv"
code=0
"${bugsize[@]}" fit "$out/blank.csv" --iters 20 --max-bugs 80 --out "$out/blank" \
  2> "$out/blank.txt" > /dev/null || code=$?
if [ "$code" -ne 1 ] || [ "$(wc -l < "$out/blank.txt")" -ne 1 ] \
    || ! grep -qxF "bugsize: error: $out/blank.csv:4: counts must be integers" "$out/blank.txt" \
    || [ -e "$out/blank" ]; then
  echo "fit blank.csv exited $code with:" >&2
  cat "$out/blank.txt" >&2
  exit 1
fi

# flag values outside the number rule: "_" grouping, and an integer past int64
for command in "fit campaign.csv --iters 20 --nu 1_5" "simulate --t-max 99999999999999999999"; do
  read -ra argv <<< "$command"
  if [ "${argv[0]}" = fit ]; then argv[1]="$out/${argv[1]}"; fi
  code=0
  "${bugsize[@]}" "${argv[@]}" --out "$out/flag" 2> "$out/flag.txt" > /dev/null || code=$?
  if [ "$code" -ne 1 ] || [ "$(grep -c 'error:' "$out/flag.txt")" -ne 1 ] \
      || grep -q Traceback "$out/flag.txt" || [ -e "$out/flag" ]; then
    echo "${argv[*]} exited $code with:" >&2
    cat "$out/flag.txt" >&2
    exit 1
  fi
done

# fit's convergence threshold is fixed at 1.1: no flag sets it
code=0
"${bugsize[@]}" fit "$out/campaign.csv" --iters 20 --rhat-warn 1.1 --out "$out/rhat" \
  2> "$out/rhat.txt" > /dev/null || code=$?
unrecognized='unrecognized arguments: --rhat-warn 1.1$'
if [ "$code" -ne 1 ] || [ "$(grep -c "$unrecognized" "$out/rhat.txt")" -ne 1 ] \
    || grep -q Traceback "$out/rhat.txt" || [ -e "$out/rhat" ]; then
  echo "fit --rhat-warn 1.1 exited $code with:" >&2
  cat "$out/rhat.txt" >&2
  exit 1
fi

# a candidate list no machine can hold (7.28 TiB of sizes alone) is refused
# before any chain starts, from the fit's memory estimate
code=0
"${bugsize[@]}" fit "$out/campaign.csv" --max-bugs 1000000000000 --out "$out/huge" \
  2> "$out/huge.txt" > /dev/null || code=$?
refusal='^bugsize: error: a fit of max_bugs=1000000000000 with 3 chains needs at least '
refusal+='[0-9,]+ bytes for its chain states and kept draws, more than the [0-9,]+ bytes '
refusal+='of physical memory$'
if [ "$code" -ne 1 ] || [ "$(wc -l < "$out/huge.txt")" -ne 1 ] \
    || ! grep -Eq "$refusal" "$out/huge.txt" \
    || grep -q Traceback "$out/huge.txt" || [ -e "$out/huge" ]; then
  echo "fit --max-bugs 1000000000000 exited $code with:" >&2
  cat "$out/huge.txt" >&2
  exit 1
fi

# 3 chains on 2 workers hand each chain between workers; 4 on 2 run whole chains
for chains in 3 4; do
  for threads in 1 2; do
    "${bugsize[@]}" fit "$out/campaign.csv" --chains "$chains" --threads "$threads" \
      --iters 200 --max-bugs 80 --seed 2 --out "$out/chains-$chains-threads-$threads"
  done
  cmp "$out/chains-$chains-threads-1/draws.csv" "$out/chains-$chains-threads-2/draws.csv"
  cmp "$out/chains-$chains-threads-1/report.json" "$out/chains-$chains-threads-2/report.json"
done

# the campaign reaches the fit only as its detected count n = 4 and t_max = 6
header='mission,phase,test_cases,bugs_detected'
printf '%s\n' "$header" A,1,6,2 A,2,3,0 B,1,4,1 B,2,2,1 > "$out/grid-2x2.csv"
printf '%s\n' "$header" X,1,1,0 X,2,6,0 X,3,0,0 Y,1,5,4 Y,2,2,0 Y,3,1,0 > "$out/grid-2x3.csv"
for grid in 2x2 2x3; do
  "${bugsize[@]}" fit "$out/grid-$grid.csv" --iters 20 --max-bugs 30 --seed 3 --threads 1 \
    --out "$out/grid-$grid" > /dev/null
done
cmp "$out/grid-2x2/draws.csv" "$out/grid-2x3/draws.csv"
cmp "$out/grid-2x2/report.json" "$out/grid-2x3/report.json"
