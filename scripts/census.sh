#!/usr/bin/env bash
# Surface census: the three numbers a simplification reports.
#
#   lines    non-test .go and .sh lines outside benchmarks/
#   options  functional options (^func (With|Without)), non-test .go files
#            outside benchmarks/
#   fields   exported fields of the tuning config structs named below
#   reads    error-less evidence reads (.ByRun(, .ByTxn(, .Records()) in
#            non-test .go files outside benchmarks/
#
# The build fails when a census exceeds its ceiling, so a knob cannot come
# back unnoticed, and neither can a read that drops its error: every
# evidence read outside the benchmark harness goes through an
# error-returning query (Vault.ByRun stays for the harness alone). The ceilings are constants, not
# overridable from the environment; the change that lowers a census
# lowers its ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

OPTION_CEILING=48
FIELD_CEILING=13
READ_CEILING=0

# Package directory and type name of each counted config struct.
STRUCTS=(
  "internal/protocol GatewayConfig"
  "internal/protocol WorkerConfig"
  "internal/transport CoalesceOptions"
  "internal/transport ChunkOptions"
  "internal/durable Config"
  "internal/protocol WatchConfig"
)

sources() {
  find . \( -path ./benchmarks -o -path ./.git \) -prune -o \
    -type f \( -name '*.go' -o -name '*.sh' \) ! -name '*_test.go' -print
}

lines="$(sources | xargs cat | wc -l)"
options="$(sources | grep '\.go$' | xargs cat | grep -cE '^func (With|Without)' || true)"
reads="$(sources | grep '\.go$' | xargs cat | grep -cE '\.(ByRun|ByTxn)\(|\.Records\(\)' || true)"

# fields DIR TYPE counts the exported field names declared in the struct
# TYPE of the package in DIR (0 when the type does not exist); "A, B int"
# counts two.
fields() {
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | awk -v t="$2" '
    $0 ~ "^type " t " struct \\{" { in_struct = 1; next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*/) {
      names = substr($0, RSTART, RLENGTH)
      n += gsub(/,/, ",", names) + 1
    }
    END { print n + 0 }'
}

total=0
for s in "${STRUCTS[@]}"; do
  read -r dir typ <<<"$s"
  n="$(fields "$dir" "$typ")"
  echo "fields ${dir#internal/}.${typ}: ${n}"
  total=$((total + n))
done

echo "lines (non-test .go+.sh outside benchmarks/): ${lines}"
echo "options (^func (With|Without), non-test, outside benchmarks/): ${options} (ceiling ${OPTION_CEILING})"
echo "fields (the config structs above): ${total} (ceiling ${FIELD_CEILING})"
echo "error-less evidence reads (non-test, outside benchmarks/): ${reads} (ceiling ${READ_CEILING})"

status=0
if [ "$options" -gt "$OPTION_CEILING" ]; then
  echo "FAIL: option census ${options} exceeds the ceiling ${OPTION_CEILING}" >&2
  status=1
fi
if [ "$total" -gt "$FIELD_CEILING" ]; then
  echo "FAIL: config field census ${total} exceeds the ceiling ${FIELD_CEILING}" >&2
  status=1
fi
if [ "$reads" -gt "$READ_CEILING" ]; then
  echo "FAIL: ${reads} error-less evidence reads exceed the ceiling ${READ_CEILING}; call QueryAll" >&2
  status=1
fi
exit "$status"
