#!/usr/bin/env bash
# Run an older build of this repository against a newer one, as separate
# processes over TCP, and judge every party's evidence afterwards.
#
#   scripts/fleet.sh OLD [NEW]
#
# OLD and NEW are git refs; NEW defaults to the working tree. Each ref is
# extracted (git archive) under .bench_build/fleet/<commit>/ and built
# offline there (scripts/refs.sh): its own ttpd and nrverify, and the
# party driver of scripts/fleet/ taken from NEW, copied into a tree that
# predates it. One direction FROM -> TO runs, each party its own process:
#
#   - a TO server (fleet serve) and a TO ttpd hosting replicas;
#   - a FROM client (fleet call): a direct call whose 9 MiB value the
#     transport chunks both ways, a streamed call read back and receipted,
#     then geo-append and seg-ship of its vault to the TO ttpd;
#   - FROM nrverify -remote against the TO ttpd, auditing that replica
#     with signature checks.
#
# OLD -> NEW always runs: receivers upgrade first, so whatever a build in
# the wire support window starts must be served by any newer one (README
# "Wire support window"). NEW -> OLD runs too when OLD is at or after
# LAST_ANCHOR, the build at the last re-anchor: within a re-anchor both
# directions are promised. Then NEW's nrverify judges every vault of the
# run (each client, server and replica; -vault with -bundle, so deep and
# signature-checked). The script prints each exchange and verdict, keeps
# the run under .bench_build/fleet/run-*/, stops every process it started
# and exits non-zero at the first exchange or verdict that fails.
set -euo pipefail

# The build at the last re-anchor. Each re-anchor moves it, as it moves
# the README's window.
LAST_ANCHOR=497995b

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/fleet.sh OLD [NEW]" >&2
  exit 2
fi
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
out="$root/.bench_build/fleet"
# shellcheck source=scripts/refs.sh
. "$root/scripts/refs.sh"

declare -A src bin name
# side SIDE REF builds a side (old or new) of the fleet from REF, or from
# the working tree when REF is empty.
side() {
  local s="$1" ref="$2" key
  if [ -z "$ref" ]; then
    src[$s]="$root" key=worktree name[$s]="working tree"
  else
    src[$s]="$(extract_ref "$root" "$out" "$ref")"
    key="$(basename "${src[$s]}")" name[$s]="$ref (${key:0:12})"
  fi
  if [ "${src[$s]}" != "${src[new]:-}" ]; then
    rm -rf "${src[$s]}/scripts/fleet" && mkdir -p "${src[$s]}/scripts"
    cp -R "${src[new]}/scripts/fleet" "${src[$s]}/scripts/fleet"
  fi
  bin[$s]="$out/bin/$key"
  build_offline "${src[$s]}" "${bin[$s]}" ./cmd/ttpd ./cmd/nrverify ./scripts/fleet
}
side new "${2:-}"
[ -d "${src[new]}/scripts/fleet" ] || { echo "fleet.sh: NEW has no scripts/fleet party driver" >&2; exit 2; }
side old "$1"
old_commit="$(git -C "$root" rev-parse "$1^{commit}")"
directions=("old new")
if git -C "$root" merge-base --is-ancestor "$LAST_ANCHOR" "$old_commit"; then
  directions+=("new old")
fi

run="$out/run-$(date -u +%Y%m%dT%H%M%SZ)-$$"
mkdir -p "$run"
echo "fleet.sh: OLD ${name[old]}, NEW ${name[new]}; run in ${run#"$root"/}"
"${bin[new]}/fleet" certs -certs "$run/certs" \
  urn:fleet:client-old urn:fleet:server-old urn:fleet:client-new urn:fleet:server-new

pids=()
cleanup() {
  local p
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

# launch LOG PATTERN CMD... starts CMD in the background, logging to LOG,
# and waits for the line from which the sed expression PATTERN prints the
# address it listens on; it sets pid and addr.
launch() {
  local log="$1" pattern="$2" i
  shift 2
  "$@" >"$log" 2>&1 &
  pid=$!
  pids+=("$pid")
  for i in $(seq 1 200); do
    addr="$(sed -n "$pattern" "$log" | head -n 1)"
    if [ -n "$addr" ]; then return 0; fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "fleet.sh: ${log#"$run"/} did not start:" >&2
  cat "$log" >&2
  return 1
}

# stop PID ends a started process with SIGTERM and waits for it, so that
# its vault closes before it is judged.
stop() {
  kill -TERM "$1"
  wait "$1" || { echo "fleet.sh: process $1 exited with $?" >&2; return 1; }
}

vaults=()
# exchanges FROM TO runs every exchange a FROM client starts toward TO
# receivers.
exchanges() {
  local from="$1" to="$2" d client server ttp srv_pid srv_addr ttp_pid ttp_addr
  d="$run/$from-$to" client="urn:fleet:client-$from" server="urn:fleet:server-$to" ttp="urn:fleet:ttp-$to"
  mkdir -p "$d"
  echo "fleet.sh: $from (${name[$from]}) starts, $to (${name[$to]}) receives"
  launch "$d/server.log" 's/^fleet: serving .* on \(.*\)$/\1/p' \
    "${bin[$to]}/fleet" serve -certs "$run/certs" -party "$server" -vault "$d/server-vault"
  srv_pid=$pid srv_addr=$addr
  launch "$d/ttpd.log" 's/^ttpd: .* listening on \(.*\)$/\1/p' \
    "${bin[$to]}/ttpd" -addr 127.0.0.1:0 -party "$ttp" -vault "$d/ttpd-vault" -trust "$run/certs"
  ttp_pid=$pid ttp_addr=$addr
  "${bin[$from]}/fleet" call -certs "$run/certs" -party "$client" -vault "$d/client-vault" \
    -server "$server=$srv_addr" -replica "$ttp=$ttp_addr" | sed 's/^/  /'
  if ! "${bin[$from]}/nrverify" -remote "$ttp_addr" -source "$client" -bundle "$run/certs" >"$d/nrverify-remote.log" 2>&1; then
    cat "$d/nrverify-remote.log" >&2
    echo "fleet.sh: $from nrverify -remote against the $to ttpd failed" >&2
    return 1
  fi
  echo "  nrverify -remote $from -> ttpd $to, replica of $client: $(grep '^verdict:' "$d/nrverify-remote.log")"
  stop "$srv_pid"
  stop "$ttp_pid"
  vaults+=("$d/client-vault" "$d/server-vault" "$d"/ttpd-vault/replicas/*/)
}

for dir in "${directions[@]}"; do
  # shellcheck disable=SC2086 # two words: FROM TO
  exchanges $dir
done

echo "fleet.sh: judging every vault with ${name[new]} nrverify"
for v in "${vaults[@]}"; do
  v="${v%/}" rel="${v#"$run"/}"
  verdict="$run/verdict-${rel//\//_}.log"
  if ! "${bin[new]}/nrverify" -vault "$v" -bundle "$run/certs" >"$verdict" 2>&1; then
    cat "$verdict" >&2
    echo "fleet.sh: evidence in $rel is faulty or unreadable" >&2
    exit 1
  fi
  echo "  $rel: $(grep '^verdict:' "$verdict")"
done
echo "fleet.sh: OK"
