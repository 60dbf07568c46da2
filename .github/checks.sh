#!/usr/bin/env bash
# Shell checks of the command line that both CI jobs run, one step each:
#
#   bash .github/checks.sh <check>
#
# Each check needs `rulestorm` on PATH and a scratch directory in RUNNER_TEMP,
# and runs from the root of the repository.
set -eo pipefail
tmp=${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}
missing="$tmp/missing.csv"

# refused CODE TEXT ARGS...: `rulestorm ARGS` must exit CODE with TEXT, a fixed
# string, on stderr, and leave no "$tmp/refused" directory behind.
refused() {
  local code=$1 text=$2 status=0
  shift 2
  rm -rf "$tmp/refused"
  rulestorm "$@" 2> "$tmp/err" || status=$?
  echo "$*: exit $status, $(cat "$tmp/err")"
  test "$status" -eq "$code"
  grep -qF -- "$text" "$tmp/err"
  test ! -e "$tmp/refused"
}

# write_table ROWS PATH: a generated table of ROWS records drawn from pima, seed 0
write_table() {
  python3 -c 'import sys; from pathlib import Path; sys.path.insert(0, "perfbench"); import gen; gen.write_table(Path("data/pima.csv"), Path(sys.argv[2]), int(sys.argv[1]), 0)' "$1" "$2"
}

# reference KEY...: a digest from perfbench/reference.json
reference() {
  python3 -c 'import json, sys; value = json.load(open("perfbench/reference.json"))
for key in sys.argv[1:]: value = value[key]
print(value)' "$@"
}

check_default_train() {
  rulestorm train --data data/pima.csv --seed 0 --out "$tmp/t"
  cmp "$tmp/t/model.json" perfbench/score_model.json
}

check_score_digest() {
  write_table 200000 "$tmp/score-0.csv"
  rulestorm evaluate perfbench/score_model.json --data "$tmp/score-0.csv" --out "$tmp/score"
  echo "$(reference score 0 predictions)  $tmp/score/predictions.csv" | sha256sum -c -
}

check_wide_ga_digest() {
  write_table 20000 "$tmp/wide-0.csv"
  echo '{"ga": {"generations": 2}}' > "$tmp/wide.json"
  rulestorm train --data "$tmp/wide-0.csv" --optimizer ga --seed 0 --config "$tmp/wide.json" --out "$tmp/wide"
  echo "$(reference train-wide 0/0 model)  $tmp/wide/model.json" | sha256sum -c -
}

check_split_ratios() {
  for verb in "evaluate perfbench/score_model.json" param-sweep; do
    refused 2 "argument --split-fraction: invalid float value: '0.7,0.8'" $verb --data "$missing" --split-fraction 0.7,0.8
    # ratios is the list that sweep and benchmark iterate over
    refused 2 "unrecognized arguments: --ratios 0.8" $verb --data "$missing" --ratios 0.8
  done
  # an out-of-range split fraction too; train alone takes 1, which trains on every record
  for verb in train "evaluate perfbench/score_model.json" param-sweep; do
    for fraction in 1.5 0 -0.1; do
      refused 2 "split fraction (--split-fraction) must be in (0, 1" $verb --data "$missing" --split-fraction "$fraction" --out "$tmp/refused"
    done
  done
  refused 2 "train split fraction (--split-fraction) must be in (0, 1], got 1.5" train --data "$missing" --split-fraction 1.5
  # sweep and benchmark split once per entry of --ratios; benchmark alone takes 1
  for verb in sweep benchmark; do
    for ratio in 1.5 0 -0.1; do
      refused 2 "(--ratios) must be in (0, 1" $verb --data "$missing" --ratios "0.5,$ratio" --out "$tmp/refused"
    done
  done
  refused 2 "sweep ratios (--ratios) must be in (0, 1), got 1.0" sweep --data "$missing" --ratios 1
  refused 3 "data file not found" benchmark --data "$missing" --ratios 1
}

check_section_seed() {
  # the verb's seed, or each sweep cell's entry in --seeds, seeds the optimizers
  echo '{"bso": {"seed": 7}}' > "$tmp/section-seed.json"
  for verb in train "evaluate perfbench/score_model.json" sweep param-sweep benchmark; do
    refused 2 "config: bso.seed is not a parameter" $verb --data "$missing" --config "$tmp/section-seed.json" --out "$tmp/refused"
  done
}

check_experiment_values() {
  # every experiment value, an empty list too, is refused before the data is read
  local where=(--data "$missing" --out "$tmp/refused") optimizer="optimizer must be one of ('bso-ewma', 'bso-plain', 'ga'), got 'sgd'"
  refused 2 "threshold must be in (0, 1], got 1.5" benchmark --threshold 1.5 "${where[@]}"
  refused 2 "$optimizer" sweep --optimizer sgd "${where[@]}"
  refused 2 "$optimizer" benchmark --optimizer sgd "${where[@]}"
  echo '{"optimizer": "sgd"}' > "$tmp/optimizer.json"
  refused 2 "$optimizer" train --config "$tmp/optimizer.json" "${where[@]}"
  refused 2 "sweep seeds must be distinct, got [0, 0]" sweep --seeds 0,0 "${where[@]}"
  refused 2 "sweep ratios must be distinct, got [0.7, 0.7]" sweep --ratios 0.7,0.7 "${where[@]}"
  refused 2 "param-sweep e (--e-values): smoothing must be in (0, 1]" param-sweep --e-values 0 "${where[@]}"
  refused 2 "param-sweep K (--k-values) must be distinct, got [10.0, 10.0]" param-sweep --k-values 10,10 "${where[@]}"
  refused 2 "benchmark fractions (--ratios) must be distinct, got [0.5, 0.5]" benchmark --ratios 0.5,0.5 "${where[@]}"
  refused 2 "benchmark optimizers must be distinct, got ['ga', 'ga']" benchmark --optimizer ga,ga "${where[@]}"
  refused 2 "sweep seeds must not be empty" sweep --seeds '' "${where[@]}"
  refused 2 "sweep ratios must not be empty" sweep --ratios '' "${where[@]}"
  refused 2 "sweep optimizers must not be empty" sweep --optimizer '' "${where[@]}"
  refused 2 "benchmark fractions (--ratios) must not be empty" benchmark --ratios '' "${where[@]}"
  refused 2 "benchmark optimizers must not be empty" benchmark --optimizer '' "${where[@]}"
  refused 2 "param-sweep e (--e-values) must not be empty" param-sweep --e-values '' "${where[@]}"
  refused 2 "param-sweep K (--k-values) must not be empty" param-sweep --k-values '' "${where[@]}"
}

if ! declare -F "check_${1//-/_}" > /dev/null; then
  echo "usage: bash .github/checks.sh CHECK, where CHECK is one of:" $(declare -F | sed -n 's/^declare -f check_//p' | tr _ -) >&2
  exit 2
fi
"check_${1//-/_}"
