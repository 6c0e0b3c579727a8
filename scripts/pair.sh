#!/usr/bin/env bash
# Compare two builds of this repository on the benchmark, in alternating
# pairs of runs.
#
#   scripts/pair.sh [-workload W|all] [-pairs N] [-seconds S] [-seed K]
#                   [-trace 0|1] BASE [CHANGE]
#
# BASE and CHANGE are git refs; CHANGE defaults to the working tree. Each
# ref is extracted (git archive) into .bench_build/pair/<commit>/ once and
# reused; the working tree runs where it is. Every run is that side's own
# benchmarks/run.sh, so each side measures itself with the harness of its
# own commit — the script warns when benchmarks/ differs between the two.
# "all" is every workload BENCHMARK.json names. Pair i runs BASE then
# CHANGE when i is odd and CHANGE then BASE when it is even (ABBA), one
# workload after another; runs never overlap. The final JSON line of
# every run is kept in .bench_build/pair/results-*.jsonl as
# {"pair","side","commit","workload","result"}; a run that fails
# (non-zero exit, "correct": false or no JSON line) is kept there too.
#
# Per workload and metric that is not zero in every run (a layer the
# workload does not run), the table gives each side's median and
# quartiles (nearest rank over that side's runs that did not fail), the
# pairs in which the change is better — strictly, ties counting for
# neither side, a pair with one failed run counting against the side that
# failed — and how many runs of the workload failed on each side. Each
# metric's direction ("better") and bound come from BENCHMARK.json; a
# bound is a fraction of the base's median. With "spread" the distance
# between the base's quartiles and "margin" how much better the change's
# median is than the base's (negative when worse):
#
#   worse       the change fails more runs of the workload than the base;
#               or, for a metric with a bound, margin < -bound; or, for
#               one without, the change worse in at least 90% of pairs
#               and margin < -spread;
#   gain        better in at least 90% of pairs and margin > spread;
#   unresolved  for a metric with a bound, a spread wider than the bound
#               — noise that could hide a regression past it — unless
#               every change run beats every base run; for one without,
#               margin < -spread but not worse in 90% of pairs;
#   no worse    anything else.
set -euo pipefail

workload=all pairs=10 seconds=10 seed=1 trace=0
refs=()
while [ $# -gt 0 ]; do
  case "$1" in
    -workload | -pairs | -seconds | -seed | -trace)
      [ $# -ge 2 ] || { echo "pair.sh: $1 needs a value" >&2; exit 2; }
      printf -v "${1#-}" '%s' "$2"
      shift 2 ;;
    -h | -help | --help) sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//'; exit 0 ;;
    -*) echo "pair.sh: unknown flag $1" >&2; exit 2 ;;
    *) refs+=("$1"); shift ;;
  esac
done
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
out="$root/.bench_build/pair"
# shellcheck source=scripts/refs.sh
. "$root/scripts/refs.sh"

# spec prints what the working tree's BENCHMARK.json declares, one line
# each: "workload NAME", "better METRIC DIRECTION", "bound METRIC FRACTION".
spec() {
  awk -F'"' '
    /^  "[a-z_]+":/ { section = $2 }
    /"name":/ { name = $4; if (section == "workloads") print "workload", name }
    /"better":/ { print "better", name, $4 }
    /"bound":/ { b = $0; sub(/.*"bound": */, "", b); sub(/[^-0-9.eE+].*/, "", b); print "bound", name, b }
  ' "$root/BENCHMARK.json"
}

# tabulate RESULTS prints the table of a results file.
tabulate() {
  # The spec, then one line per failed run (failed WORKLOAD PAIR SIDE) and
  # per metric of every other run (value WORKLOAD METRIC PAIR SIDE VALUE).
  {
    spec
    awk -F'"workload":"' '{
      split($2, a, "\""); w = a[1]
      match($0, /"pair":[0-9]+/); pair = substr($0, RSTART + 7, RLENGTH - 7)
      side = ($0 ~ /"side":"base"/) ? "base" : "change"
      if ($0 ~ /"correct":false/) { print "failed", w, pair, side; next }
      rest = $0
      while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-0-9.eE+]+/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        split(m, p, "\""); v = m; sub(/.*"value":/, "", v)
        print "value", w, p[2], pair, side, v
      }
    }' "$1"
  } | awk '
  function sortn(a, n,   i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
  function rank(a, n, q,   r) { r = int(q * n + 0.999999); if (r < 1) r = 1; return a[r] }
  BEGIN { printf "%-15s %-34s %12s %25s %12s %25s %6s %6s  %s\n", "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "wins", "failed", "verdict" }
  $1 == "better" { better[$2] = $3; next }
  $1 == "bound" { bound[$2] = $3; next }
  $1 == "failed" { failed[$2, $3, $4] = 1; nfailed[$2, $4]++; if ($3 + 0 > maxpair) maxpair = $3 + 0; next }
  $1 == "value" { key = $2 SUBSEP $3; val[key, $4, $5] = $6; seen[key] = 1; if ($4 + 0 > maxpair) maxpair = $4 + 0 }
  END {
    for (key in seen) keys[++nk] = key
    for (i = 2; i <= nk; i++) { t = keys[i]; for (j = i - 1; j >= 1 && keys[j] > t; j--) keys[j + 1] = keys[j]; keys[j + 1] = t }
    for (k = 1; k <= nk; k++) {
      key = keys[k]; split(key, kw, SUBSEP); w = kw[1]; dir = better[kw[2]]
      nb = nc = wins = losses = np = nonzero = 0; delete b; delete c
      for (p = 1; p <= maxpair; p++) {
        hb = (key, p, "base") in val; hc = (key, p, "change") in val
        if (hb) { x = val[key, p, "base"] + 0; b[++nb] = x; if (x != 0) nonzero++ }
        if (hc) { y = val[key, p, "change"] + 0; c[++nc] = y; if (y != 0) nonzero++ }
        if (hb && hc) {
          np++
          if (dir == "higher") { if (y > x) wins++; else if (y < x) losses++ }
          else { if (y < x) wins++; else if (y > x) losses++ }
        } else if (hb && failed[w, p, "change"]) { np++; losses++ }
        else if (hc && failed[w, p, "base"]) { np++; wins++ }
      }
      if (nonzero == 0) continue # a layer the workload does not run
      fb = nfailed[w, "base"] + 0; fc = nfailed[w, "change"] + 0
      sortn(b, nb); sortn(c, nc)
      if (nb > 0) { bq1 = rank(b, nb, 0.25); bm = rank(b, nb, 0.5); bq3 = rank(b, nb, 0.75) }
      if (nc > 0) { cq1 = rank(c, nc, 0.25); cm = rank(c, nc, 0.5); cq3 = rank(c, nc, 0.75) }
      margin = (dir == "higher") ? cm - bm : bm - cm; spread = bq3 - bq1
      beats = (dir == "higher") ? (c[1] > b[nb]) : (c[nc] < b[1])
      limit = ((kw[2] in bound) ? bound[kw[2]] : 0) * (bm < 0 ? -bm : bm)
      if (dir == "") verdict = "-"
      else if (fc > fb || nc == 0) verdict = "worse"
      else if (nb == 0) verdict = "unresolved"
      else if ((kw[2] in bound) && -margin > limit) verdict = "worse"
      else if (!(kw[2] in bound) && -margin > spread && losses >= 0.9 * np) verdict = "worse"
      else if (margin > spread && wins >= 0.9 * np) verdict = "gain"
      else if ((kw[2] in bound) && spread > limit && !beats) verdict = "unresolved"
      else if (!(kw[2] in bound) && -margin > spread) verdict = "unresolved"
      else verdict = "no worse"
      printf "%-15s %-34s %12s %25s %12s %25s %6s %6s  %s\n", w, kw[2],
        nb ? sprintf("%.6g", bm) : "-", nb ? sprintf("[%.6g, %.6g]", bq1, bq3) : "-",
        nc ? sprintf("%.6g", cm) : "-", nc ? sprintf("[%.6g, %.6g]", cq1, cq3) : "-",
        wins "/" np, fb "/" fc, verdict
    }
  }'
}

if [ ${#refs[@]} -lt 1 ] || [ ${#refs[@]} -gt 2 ]; then
  echo "usage: scripts/pair.sh [-workload W|all] [-pairs N] [-seconds S] [-seed K] [-trace 0|1] BASE [CHANGE]" >&2
  exit 2
fi
mkdir -p "$out"

base_commit="$(git -C "$root" rev-parse --verify --quiet "${refs[0]}^{commit}")" || { echo "pair.sh: no commit ${refs[0]}" >&2; exit 2; }
base_dir="$(extract_ref "$root" "$out" "${refs[0]}")"
if [ ${#refs[@]} -eq 2 ]; then
  change_commit="$(git -C "$root" rev-parse --verify --quiet "${refs[1]}^{commit}")" || { echo "pair.sh: no commit ${refs[1]}" >&2; exit 2; }
  change_dir="$(extract_ref "$root" "$out" "${refs[1]}")"
  harness_diff() { ! git -C "$root" diff --quiet "$base_commit" "$change_commit" -- benchmarks; }
else
  change_commit="working-tree"
  change_dir="$root"
  harness_diff() { ! git -C "$root" diff --quiet "$base_commit" -- benchmarks; }
fi
if harness_diff; then
  echo "pair.sh: WARNING: benchmarks/ differs between the two sides; each runs its own harness" >&2
fi

if [ "$workload" = all ]; then
  mapfile -t workloads < <(spec | awk '$1 == "workload" { print $2 }')
else
  workloads=("$workload")
fi
results="$out/results-$(date -u +%Y%m%dT%H%M%SZ).jsonl"
: >"$results"
echo "pair.sh: base ${base_commit:0:12}, change ${change_commit:0:12}; ${pairs} pairs of ${workloads[*]}, ${seconds} s, seed ${seed}, trace ${trace}"
echo "pair.sh: results in ${results#"$root"/}"

# run SIDE PAIR WORKLOAD runs one side once and keeps its final JSON line.
run() {
  local side="$1" pair="$2" w="$3" dir commit line status=0
  if [ "$side" = base ]; then dir="$base_dir" commit="$base_commit"; else dir="$change_dir" commit="$change_commit"; fi
  line="$(cd "$dir" && bash benchmarks/run.sh -workload "$w" -seconds "$seconds" -seed "$seed" -trace "$trace" 2>>"${results%.jsonl}.log" | grep '^{' | tail -n 1)" || status=$?
  if [ "$status" -ne 0 ] || [ -z "$line" ]; then
    line="{\"correct\":false,\"exit\":$status}"
  fi
  printf '{"pair":%d,"side":"%s","commit":"%s","workload":"%s","result":%s}\n' "$pair" "$side" "$commit" "$w" "$line" >>"$results"
  echo "  pair $pair $w $side: $(grep -o '"correct":[a-z]*' <<<"$line")"
}

for ((i = 1; i <= pairs; i++)); do
  for w in "${workloads[@]}"; do
    if ((i % 2)); then run base "$i" "$w"; run change "$i" "$w"; else run change "$i" "$w"; run base "$i" "$w"; fi
  done
done

tabulate "$results"
