# Helpers that scripts/pair.sh and scripts/fleet.sh source: extract a git
# ref's tree and build Go programs in it offline. The module has no
# dependencies, so any ref builds with the local toolchain and no network.

# extract_ref ROOT OUT REF prints the directory holding REF's tree,
# extracting it (git archive) into OUT/<commit>/ the first time.
extract_ref() {
  local root="$1" out="$2" commit dir
  commit="$(git -C "$root" rev-parse --verify --quiet "$3^{commit}")" || { echo "$(basename "$0"): no commit $3" >&2; return 2; }
  dir="$out/$commit"
  if [ ! -d "$dir" ]; then
    mkdir -p "$out"
    rm -rf "$dir.tmp" && mkdir -p "$dir.tmp"
    git -C "$root" archive "$commit" | tar -x -C "$dir.tmp"
    mv "$dir.tmp" "$dir"
  fi
  echo "$dir"
}

# build_offline DIR BIN PKG... builds the packages of the module at DIR
# into the directory BIN with the local toolchain only.
build_offline() {
  local dir="$1" bin="$2"
  shift 2
  mkdir -p "$bin"
  GOPROXY=off GOTOOLCHAIN=local GOFLAGS= go build -C "$dir" -o "$bin/" "$@"
}
