#!/usr/bin/env bash
# Shell checks of the command line that every leg of the CI tests job runs,
# one step each:
#
#   bash .github/checks.sh <check>
#
# Each check needs `rulestorm` on PATH and a scratch directory in RUNNER_TEMP,
# and runs from the root of the repository.
set -eo pipefail
# a numpy divide, overflow or invalid-value warning fails a check, as it fails tier-1
export PYTHONWARNINGS=error::RuntimeWarning
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

# trace_matches KEY... PATH: trace.csv at PATH, without its wall-clock elapsed_ms
# column, has the digest that perfbench/reference.json holds under KEY...
trace_matches() {
  local path=${*: -1} want got
  want=$(reference "${@:1:$#-1}")
  got=$(python3 -c 'import sys; from pathlib import Path; sys.path.insert(0, "perfbench"); import worker; print(worker.trace_digest(Path(sys.argv[1])))' "$path")
  echo "trace without elapsed_ms: $got, reference: $want"
  test "$got" = "$want"
}

# model_with EDIT PATH: perfbench/score_model.json, its document d edited by the
# Python statement EDIT, written to PATH
model_with() {
  python3 -c 'import json, sys; d = json.load(open("perfbench/score_model.json")); exec(sys.argv[1]); json.dump(d, open(sys.argv[2], "w"))' "$1" "$2"
}

check_default_train() {
  rulestorm train --data data/pima.csv --seed 0 --out "$tmp/t"
  cmp "$tmp/t/model.json" perfbench/score_model.json
}

check_score_digest() {
  write_table 200000 "$tmp/score-0.csv"
  # the same table with \r\n line ends must score the same, through many chunks
  sed 's/$/\r/' "$tmp/score-0.csv" > "$tmp/score-0-crlf.csv"
  for table in score-0 score-0-crlf; do
    rulestorm evaluate perfbench/score_model.json --data "$tmp/$table.csv" --out "$tmp/$table"
    echo "$(reference score 0 predictions)  $tmp/$table/predictions.csv" | sha256sum -c -
  done
}

check_wide_ga_digest() {
  write_table 20000 "$tmp/wide-0.csv"
  echo '{"ga": {"generations": 2}}' > "$tmp/wide.json"
  rulestorm train --data "$tmp/wide-0.csv" --optimizer ga --seed 0 --config "$tmp/wide.json" --out "$tmp/wide"
  echo "$(reference train-wide 0/0 model)  $tmp/wide/model.json" | sha256sum -c -
  trace_matches train-wide 0/0 trace "$tmp/wide/trace.csv"
}

check_pima_bso_digest() {
  # the train-pima workload's seed-0 operation: bso-ewma, 30 iterations, the seed-0 split
  echo '{"bso": {"max_iterations": 30}}' > "$tmp/pima.json"
  rulestorm train --data data/pima.csv --seed 0 --config "$tmp/pima.json" --out "$tmp/pima"
  echo "$(reference train-pima 0 model)  $tmp/pima/model.json" | sha256sum -c -
  trace_matches train-pima 0 trace "$tmp/pima/trace.csv"
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

check_experiment_csvs() {
  local config="$tmp/small.json"
  echo '{"bso": {"population_size": 10, "cluster_count": 2, "max_iterations": 15}, "ga": {"population_size": 10, "generations": 15}}' > "$config"
  for run in a b; do
    local out="$tmp/experiments-$run"
    rulestorm sweep --data data/pima.csv --config "$config" --ratios 0.7,0.8 --seeds 0,1 --out "$out"
    rulestorm param-sweep --data data/pima.csv --config "$config" --e-values 0.5,1.0 --k-values 10,20 --out "$out"
    rulestorm benchmark --data data/pima.csv --config "$config" --ratios 0.5,1.0 --threshold 0.68 --out "$out"
    # column 7, elapsed_ms_to_threshold, is wall-clock time
    head -n 1 "$out/benchmark.csv" | cut -d, -f7 | grep -qx elapsed_ms_to_threshold
    cut -d, -f1-6,8- "$out/benchmark.csv" > "$out/benchmark-without-ms.csv"
  done
  for f in sweep.csv param_sweep.csv benchmark-without-ms.csv; do
    cmp "$tmp/experiments-a/$f" "$tmp/experiments-b/$f"
  done
}

check_bad_settings() {
  # a bad training setting stops a sweep before any cell
  for setting in '"accuracy_weight": 2.0' '"rule_count": 1'; do
    local config="$tmp/bad-setting.json" out="$tmp/bad-setting" status=0
    echo "{$setting}" > "$config"
    rm -rf "$out"
    rulestorm sweep --data data/pima.csv --config "$config" --out "$out" || status=$?
    echo "$setting: exit $status"
    test "$status" -eq 2
    test ! -e "$out/sweep.csv"
  done
  # so does an out-of-range bso or ga value, named by its section and bounds
  echo '{"bso": {"smoothing": 0}}' > "$tmp/bad-bso.json"
  refused 2 "config: bso.smoothing must be in (0, 1], got 0" sweep --data data/pima.csv --config "$tmp/bad-bso.json" --out "$tmp/refused"
  echo '{"ga": {"tournament_size": 0}}' > "$tmp/bad-ga.json"
  refused 2 "config: ga.tournament_size must be at least 1, got 0" sweep --data data/pima.csv --config "$tmp/bad-ga.json" --out "$tmp/refused"
  # train refuses too few rules once it has read the data, before it writes anything
  echo '{"rule_count": 1}' > "$tmp/one-rule.json"
  refused 2 "need at least one rule per class: r=1 < c=2" train --data data/pima.csv --config "$tmp/one-rule.json" --out "$tmp/refused"
}

check_evaluate_decision_rule() {
  # evaluate scores a model by the decision rule it was trained with
  local config="$tmp/sum-scores.json" trained evaluated held_out accuracy records
  echo '{"sum_scores": true, "bso": {"max_iterations": 6}}' > "$config"
  trained=$(rulestorm train --data data/pima.csv --config "$config" --seed 0 --out "$tmp/sum-scores")
  evaluated=$(rulestorm evaluate "$tmp/sum-scores/model.json" --data data/pima.csv --split-fraction 0.8 --seed 0 --out "$tmp/sum-scores-evaluated")
  held_out=$(sed -n 's/^held-out accuracy: \([0-9.]*\) .*/\1/p' <<< "$trained")
  accuracy=$(sed -n 's/^accuracy: //p' <<< "$evaluated")
  echo "train: $held_out, evaluate: $accuracy"
  test -n "$held_out" && test "$held_out" = "$accuracy"
  # predictions.csv has one row per record, and its rows give the accuracy
  records=$(sed -n 's/^records: //p' <<< "$evaluated")
  python3 -c 'import csv, sys; rows = list(csv.DictReader(open(sys.argv[1], newline=""))); right = sum(r["true_label"] == r["predicted_label"] for r in rows); print(f"rows: {len(rows)}, right: {right}"); sys.exit(not (len(rows) == int(sys.argv[2]) and f"{right / len(rows):.4f}" == sys.argv[3]))' "$tmp/sum-scores-evaluated/predictions.csv" "$records" "$accuracy"
}

check_model_values() {
  # a model file holding a value that the model types refuse exits 3, and nothing is scored
  local model="$tmp/model-values.json" where=(--data data/pima.csv --out "$tmp/refused")
  model_with 'd["classes"]["values"] = [float("nan"), 1.0]' "$model"
  refused 3 "class values (nan, 1.0): need distinct finite numbers" evaluate "$model" "${where[@]}"
  model_with 'd["classes"]["values"] = [0.0, 0.0]' "$model"
  refused 3 "class values (0.0, 0.0): need distinct finite numbers" evaluate "$model" "${where[@]}"
  model_with 'd["rules"][0]["connective"] = "and"' "$model"
  refused 3 "rule 1 connective must be AND or OR, got 'and'" evaluate "$model" "${where[@]}"
  model_with 'd["metadata"]["sum_scores"] = "false"' "$model"
  refused 3 "metadata.sum_scores must be true or false, got 'false'" evaluate "$model" "${where[@]}"
  model_with 'd["attributes"] = []; d["rules"] = [dict(rule, antecedents=[]) for rule in d["rules"]]' "$model"
  refused 3 "a model needs at least one attribute" evaluate "$model" "${where[@]}"
}

if ! declare -F "check_${1//-/_}" > /dev/null; then
  echo "usage: bash .github/checks.sh CHECK, where CHECK is one of:" $(declare -F | sed -n 's/^declare -f check_//p' | tr _ -) >&2
  exit 2
fi
"check_${1//-/_}"
