#!/usr/bin/env bash
# Surface census: the numbers a simplification reports.
#
#   lines    non-test .go and .sh lines outside benchmarks/
#   options  functional options (^func (With|Without)), non-test .go files
#            outside benchmarks/
#   fields   exported fields of the tuning config structs named below
#   reads    error-less evidence reads (.ByRun(, .ByTxn(, .Records()) in
#            non-test .go files outside benchmarks/
#   testonly exported functions and methods declared in non-test .go files
#            under internal/ whose name occurs in no non-test .go file
#            (benchmarks/ included, comments stripped) but at its
#            declarations: API only tests reach
#   protocols lines of non-test internal/invoke .go files (comments
#            stripped) that compare (==, !=), case on or list in a
#            []string literal an invocation protocol name
#            (Protocol{Direct,Voluntary,Inline,Fair}), or compare a
#            protocol name variable (proto, a descriptor's .name). The
#            descriptor table that binds each name to its shape is not
#            counted: every other branch reads descriptor fields
#
# testonly matches by name: dead code sharing a name with used code goes
# uncounted, but used code is never counted. The names it prints are of
# accepted kinds: misbehaviour hooks and fault injection
# (TamperResultChunk, SetCrashHook, FaultyNetwork Partition/Heal/Drops,
# blob.Mem SetFault/Corrupt); internal/testpki; instruments and fixture
# codecs tests read (CounterTotal, the metered transport's counts,
# MustMarshal, NextRecord, credential helpers); MarshalJSON/UnmarshalJSON,
# which encoding/json calls unnamed; WithInterceptors, the one way to
# install the container's transaction, persistence and B2BObject
# interceptors; and public API waiting for a product caller
# (AuditSharedHistory, replica Prune, ProposeAtomic, ResolveNow). A new
# name needs such a reason or a caller.
#
# The build fails when a census exceeds its ceiling, so a knob cannot come
# back unnoticed, and neither can a read that drops its error: every
# evidence read outside the benchmark harness goes through an
# error-returning query (Vault.ByRun stays for the harness alone). The
# ceilings are constants, not overridable from the environment; the
# change that lowers a census lowers its ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

OPTION_CEILING=45
FIELD_CEILING=10
READ_CEILING=0
TESTONLY_CEILING=47
PROTOCOL_CEILING=1

# Package directory and type name of each counted config struct.
STRUCTS=(
  "internal/protocol GatewayConfig"
  "internal/transport CoalesceOptions"
  "internal/durable Config"
  "internal/protocol WatchConfig"
)

sources() {
  find . \( -path ./benchmarks -o -path ./.git -o -path ./.bench_build \) -prune -o \
    -type f \( -name '*.go' -o -name '*.sh' \) ! -name '*_test.go' -print
}

lines="$(sources | xargs cat | wc -l)"
options="$(sources | grep '\.go$' | xargs cat | grep -cE '^func (With|Without)' || true)"
reads="$(sources | grep '\.go$' | xargs cat | grep -cE '\.(ByRun|ByTxn)\(|\.Records\(\)' || true)"

# nocomments strips // and /* */ comments from Go source, leaving string
# and rune literals whole.
nocomments() {
  perl -0777 -pe 's{("(?:\\.|[^"\\\n])*"|`[^`]*`|\x27(?:\\.|[^\x27\\\n])*\x27)|//[^\n]*|/\*.*?\*/}{defined $1 ? $1 : ""}gse'
}

# gosrc DIR lists the non-test .go files under DIR (not the checkouts
# scripts/pair.sh keeps under .bench_build).
gosrc() {
  find "$1" \( -name .git -o -name testdata -o -name .bench_build \) -prune -o -type f -name '*.go' ! -name '*_test.go' -print
}

# A declared name is test-only when its every occurrence is a declaration.
testonly_names="$(awk 'NR == FNR { decl[$2] = $1; next } ($2 in decl) && $1 == decl[$2] { print $2 }' \
  <(gosrc internal | xargs cat | nocomments | grep -oE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*' |
    sed -E 's/^func (\([^)]*\) )?//' | sort | uniq -c) \
  <(gosrc . | xargs cat | nocomments | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c) | sort)"
testonly="$(grep -c . <<<"$testonly_names" || true)"

protocols="$(gosrc internal/invoke | sort | xargs cat | nocomments | grep -cE \
  'Protocol(Direct|Voluntary|Inline|Fair)\b.*([!=]=|\[\]string\{)|([!=]=|\bcase\b|\[\]string\{).*Protocol(Direct|Voluntary|Inline|Fair)\b|(\bproto|\.name)\b *[!=]=' || true)"

# fields DIR TYPE counts the exported field names declared in the struct
# TYPE of the package in DIR ("A, B int" counts two) and prints nothing
# when the package declares no such struct.
fields() {
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | awk -v t="$2" '
    $0 ~ "^type " t " struct \\{" { found = 1; in_struct = 1; next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*/) {
      names = substr($0, RSTART, RLENGTH)
      n += gsub(/,/, ",", names) + 1
    }
    END { if (found) print n + 0 }'
}

status=0
total=0
for s in "${STRUCTS[@]}"; do
  read -r dir typ <<<"$s"
  n="$(fields "$dir" "$typ" || true)"
  if [ -z "$n" ]; then
    # A renamed or deleted struct must not drop out of the census as 0.
    echo "FAIL: ${dir} declares no struct ${typ}; rename or drop its row" >&2
    status=1
    n=0
  fi
  echo "fields ${dir#internal/}.${typ}: ${n}"
  total=$((total + n))
done

echo "lines (non-test .go+.sh outside benchmarks/): ${lines}"
echo "options (^func (With|Without), non-test, outside benchmarks/): ${options} (ceiling ${OPTION_CEILING})"
echo "fields (the config structs above): ${total} (ceiling ${FIELD_CEILING})"
echo "error-less evidence reads (non-test, outside benchmarks/): ${reads} (ceiling ${READ_CEILING})"
echo "test-only API (exported in internal/, no non-test caller): ${testonly} (ceiling ${TESTONLY_CEILING})"
echo "  $(tr '\n' ' ' <<<"$testonly_names")"
echo "protocol-name comparisons (non-test internal/invoke): ${protocols} (ceiling ${PROTOCOL_CEILING})"

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
if [ "$testonly" -gt "$TESTONLY_CEILING" ]; then
  echo "FAIL: ${testonly} test-only exported names exceed the ceiling ${TESTONLY_CEILING}; give the new one a product caller or delete it" >&2
  status=1
fi
if [ "$protocols" -gt "$PROTOCOL_CEILING" ]; then
  echo "FAIL: ${protocols} protocol-name comparisons in internal/invoke exceed the ceiling ${PROTOCOL_CEILING}; branch on descriptor fields" >&2
  status=1
fi
exit "$status"
