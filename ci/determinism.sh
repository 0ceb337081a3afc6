#!/usr/bin/env bash
# Determinism-gate helper (DESIGN.md §9): every deterministic result
# file must be a pure function of (seed, config) — worker-thread count
# and tracing must never change its bytes. CI proves that by
# running the same binary under different knobs and byte-comparing the
# output, which used to be copy-pasted run/stash/cmp step triples.
#
#   ci/determinism.sh baseline KEY FILE[,FILE...] [-- COMMAND...]
#       Run COMMAND (if given), then stash each FILE under
#       .determinism/KEY/.
#   ci/determinism.sh check KEY FILE[,FILE...] [-- COMMAND...]
#       Run COMMAND (if given), then byte-compare each FILE against the
#       KEY stash; any difference fails the build.
#
# Omitting COMMAND stashes/compares the files already on disk — used
# when one binary invocation serves as the check for one file and the
# baseline for another (e.g. a traced suite run checks suite.json and
# baselines suite_trace.jsonl).
set -euo pipefail

usage() {
    echo "usage: ci/determinism.sh baseline|check KEY FILE[,FILE...] [-- COMMAND...]" >&2
    exit 2
}

mode=${1:-} key=${2:-} files=${3:-}
[ -n "$mode" ] && [ -n "$key" ] && [ -n "$files" ] || usage
shift 3
if [ "${1:-}" = "--" ]; then
    shift
    [ "$#" -gt 0 ] || usage
    "$@"
elif [ "$#" -gt 0 ]; then
    usage
fi

stash=".determinism/$key"
IFS=',' read -r -a file_list <<<"$files"

case "$mode" in
baseline)
    mkdir -p "$stash"
    for f in "${file_list[@]}"; do
        cp "$f" "$stash/$(basename "$f")"
        echo "determinism: stashed $f -> $stash/"
    done
    ;;
check)
    for f in "${file_list[@]}"; do
        cmp "$f" "$stash/$(basename "$f")"
        echo "determinism: $f is byte-identical to $stash/$(basename "$f")"
    done
    ;;
*)
    usage
    ;;
esac
