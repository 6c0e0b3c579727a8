#!/usr/bin/env bash
# Coverage floor gate for the evidence-critical packages: the vault (the
# store disputes depend on), the protocol layer (coordinator, host,
# remote audit + replication), the invocation layer (the evidence
# exchange itself, including streamed payloads), the telemetry plane
# (the observability surface operators trust), the durable runtime
# (the job journal crash recovery depends on) and the adjudicator (the
# verdicts disputes end in). The build fails when any
# package's statement coverage drops below its floor, so test erosion is
# caught in the same PR that causes it.
#
# Floors are set a few points under the current measured coverage
# (vault ~78%, protocol ~83%, invoke ~76%, obs ~94%, durable ~88%,
# store ~85%, feed ~83%, georep ~87%, blob ~75%, sharing ~81%,
# transport ~86%, bounded 100%, evidence ~67%, sig ~65%, core ~74%,
# nrverify ~67% at the time of writing) to allow noise without allowing
# decay. The store floor guards
# the binary record codec — the bytes every other guarantee rests on —
# and the evidence and sig floors the token codec and the signatures it
# rebuilds (a batch-signed token borrowing its sibling's); the feed floor
# guards the cursor every live subscription reads the vault through; the georep and
# blob floors guard the quorum/archival plane region-loss survival rests
# on; the sharing floor guards the one coordination round every
# shared-information change, single-object or atomic, runs through; the
# transport floor guards retransmission, replay and chunk reassembly;
# the bounded floor guards the one table every replay cache, chunk
# buffer and open-run list is bounded by; the nrverify floor guards the
# one judge every offline and remote verdict comes from. The floors are constants, not
# overridable from the environment.
set -euo pipefail
cd "$(dirname "$0")/.."

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

check ./internal/vault/ 72
check ./internal/protocol/ 75
check ./internal/invoke/ 70
check ./internal/obs/ 75
check ./internal/durable/ 80
check ./internal/store/ 75
check ./internal/feed/ 75
check ./internal/georep/ 75
check ./internal/blob/ 75
check ./internal/sharing/ 77
check ./internal/transport/ 82
check ./internal/bounded/ 95
check ./internal/evidence/ 63
check ./internal/sig/ 62
check ./internal/core/ 70
check ./cmd/nrverify/ 63
echo "coverage floors hold"
