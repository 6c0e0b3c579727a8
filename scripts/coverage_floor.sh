#!/usr/bin/env bash
# Coverage floor gate for the evidence-critical packages: the vault (the
# store disputes depend on), the protocol layer (coordinator, host,
# remote audit + replication), the invocation layer (the evidence
# exchange itself, including streamed payloads), the telemetry plane
# (the observability surface operators trust) and the durable runtime
# (the job journal crash recovery depends on). The build fails when any
# package's statement coverage drops below its floor, so test erosion is
# caught in the same PR that causes it.
#
# Floors are set a few points under the current measured coverage
# (vault ~78%, protocol ~83%, invoke ~76%, obs ~94%, durable ~88%,
# store ~85%, feed ~83%, georep ~87%, blob ~75%, sharing ~81% at the
# time of writing) to allow noise without allowing decay. The store
# floor guards the binary record codec — the bytes every other
# guarantee rests on; the feed floor guards the subscription hub live
# feeds fan out through; the georep and blob floors guard the
# quorum/archival plane region-loss survival rests on; the sharing
# floor guards the one coordination round every shared-information
# change, single-object or atomic, runs through.
set -euo pipefail
cd "$(dirname "$0")/.."

FLOOR_VAULT="${FLOOR_VAULT:-72}"
FLOOR_PROTOCOL="${FLOOR_PROTOCOL:-75}"
FLOOR_INVOKE="${FLOOR_INVOKE:-70}"
FLOOR_OBS="${FLOOR_OBS:-75}"
FLOOR_DURABLE="${FLOOR_DURABLE:-80}"
FLOOR_STORE="${FLOOR_STORE:-75}"
FLOOR_FEED="${FLOOR_FEED:-75}"
FLOOR_GEOREP="${FLOOR_GEOREP:-75}"
FLOOR_BLOB="${FLOOR_BLOB:-75}"
FLOOR_SHARING=77

check() {
  local pkg="$1" floor="$2" profile pct
  profile="$(mktemp)"
  go test -coverprofile="$profile" "$pkg" >/dev/null
  pct="$(go tool cover -func="$profile" | awk '/^total:/ {gsub("%","",$3); print $3}')"
  rm -f "$profile"
  echo "coverage ${pkg}: ${pct}% (floor ${floor}%)"
  awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' || {
    echo "FAIL: ${pkg} coverage ${pct}% is below the ${floor}% floor" >&2
    return 1
  }
}

check ./internal/vault/ "$FLOOR_VAULT"
check ./internal/protocol/ "$FLOOR_PROTOCOL"
check ./internal/invoke/ "$FLOOR_INVOKE"
check ./internal/obs/ "$FLOOR_OBS"
check ./internal/durable/ "$FLOOR_DURABLE"
check ./internal/store/ "$FLOOR_STORE"
check ./internal/feed/ "$FLOOR_FEED"
check ./internal/georep/ "$FLOOR_GEOREP"
check ./internal/blob/ "$FLOOR_BLOB"
check ./internal/sharing/ "$FLOOR_SHARING"
echo "coverage floors hold"
