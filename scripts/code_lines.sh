#!/bin/sh
# Code lines of the proxy's lifecycle, its two pollers (the reactor, and
# the service interface with the blocking poller), the proxy service, the
# prefetcher (where a demand join waits on a speculation), the volume
# center (one more driver of the lifecycle's response machine), the
# origin and the record tap, counted the way ROADMAP.md quotes them: lines
# before the first `#[cfg(test)]` that are neither blank nor `//`-only.
# `--check` fails when their sum exceeds the ceiling committed in
# scripts/code_lines.ceiling (ROADMAP aim 2: "a gate defends it") — lower
# the ceiling when a change shrinks the sum.
set -eu
cd "$(dirname "$0")/.."
sum=0
for f in reactor proxy service lifecycle prefetch volume_center origin record_tap; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
             END { print n + 0 }' "crates/proxyd/src/$f.rs")
    printf '%-17s %5d\n' "$f.rs" "$n"
    sum=$((sum + n))
done
printf '%-17s %5d\n' sum "$sum"
if [ "${1:-}" = --check ]; then
    ceiling=$(cat scripts/code_lines.ceiling)
    if [ "$sum" -gt "$ceiling" ]; then
        echo "code lines $sum exceed the ceiling $ceiling (scripts/code_lines.ceiling)" >&2
        exit 1
    fi
fi
