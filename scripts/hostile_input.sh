#!/usr/bin/env bash
# Feeds `sttlock` bad tuning values, flags and key files. Every invocation
# must exit non-zero with an error that names the bad input, and no error
# may leak raw std:: conversion text (stoi, stol, stoul, stoull, stod).
#
#   scripts/hostile_input.sh build/tools/sttlock
set -u
sttlock=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$sttlock" gen --profile s641 --seed 1 --out "$work/c.bench" >/dev/null
"$sttlock" defend --in "$work/c.bench" --kind xor --out-locked "$work/l.bench" \
  --out-foundry "$work/f.bench" >/dev/null
printf 'kg0 zz\n' >"$work/zz.key"
printf 'kg0 0x1garbage\n' >"$work/garbage.key"

fail=0
# expect_error <text the error must contain> <sttlock arguments...>
expect_error() {
  local want=$1
  shift
  if "$sttlock" "$@" >"$work/out" 2>"$work/err"; then
    echo "FAIL (exit 0): sttlock $*"
    fail=1
  elif ! grep -qF -- "$want" "$work/err"; then
    echo "FAIL (error does not name $want): sttlock $*"
    cat "$work/err"
    fail=1
  elif grep -qE 'stoi|stol|stoul|stoull|stod' "$work/err"; then
    echo "FAIL (raw conversion error): sttlock $*"
    cat "$work/err"
    fail=1
  else
    echo "ok: sttlock $* -> $(head -n 1 "$work/err")"
  fi
}

defend=(defend --in "$work/c.bench")
attack=(attack --view "$work/f.bench" --oracle "$work/l.bench" --kind bf)

expect_error '"count"' "${defend[@]}" --kind independent --tune count=0
expect_error '"paths"' "${defend[@]}" --kind dependent --tune paths=0
expect_error '"xnor"' "${defend[@]}" --kind xor --tune xnor=nan
expect_error '"convert"' "${defend[@]}" --kind const --tune convert=yes
expect_error "'--margin'" "${defend[@]}" --margin nan
expect_error '"all_masks"' "${attack[@]}" --tune all_masks=yes
expect_error "'--time-limit'" "${attack[@]}" --time-limit nan
expect_error "'--time-limit'" "${attack[@]}" --time-limit -1
expect_error "'--query-budget'" "${attack[@]}" --query-budget -1
expect_error "'--work-budget'" "${attack[@]}" --work-budget -1
expect_error "'--seed'" "${attack[@]}" --seed -1
expect_error "'kg0'" program --in "$work/f.bench" --key "$work/zz.key" \
  --out "$work/p.bench"
expect_error "'kg0'" program --in "$work/f.bench" --key "$work/garbage.key" \
  --out "$work/p.bench"
expect_error '"abc"' campaign --benchmarks s641 --defense xor:count=abc \
  --quiet
expect_error "'--retries'" campaign --benchmarks s641 --retries 0 --quiet
expect_error "'--scoap-threshold'" lint --in "$work/l.bench" \
  --scoap-threshold nan
exit $fail
