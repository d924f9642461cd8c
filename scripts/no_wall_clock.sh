#!/bin/sh
# Time is an input (PROTOCOL.md §7, "Time"): every proxy and volume-center
# decision reads a stamp its poller took. Fails when `Instant::now()` or
# `SystemTime::now()` appears in the non-test part (before the first
# `#[cfg(test)]`) of the proxy's lifecycle, service or prefetcher, of the
# cache policy the proxy shares with the replays (`webcache`'s `cache.rs`
# and `sharded.rs`), or in the body of `volume_center::learn`, and names
# each hit.
set -eu
cd "$(dirname "$0")/.."
src=crates/proxyd/src
reads='(Instant|SystemTime)::now\(\)'
found=$(
    for f in $src/lifecycle.rs $src/proxy.rs $src/prefetch.rs \
        crates/webcache/src/cache.rs crates/webcache/src/sharded.rs; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    awk '/^fn learn\(/ { on = 1 } on { print FILENAME ":" FNR ": " $0 } on && /^}/ { exit }' \
        "$src/volume_center.rs"
)
if ! printf '%s\n' "$found" | grep -q 'volume_center.rs:[0-9]*: fn learn('; then
    echo "volume_center::learn not found" >&2
    exit 1
fi
if printf '%s\n' "$found" | grep -E "$reads" >&2; then
    echo "a decision path reads the wall clock (above): take the poller's stamp" >&2
    exit 1
fi
echo "no wall-clock read in the decision paths"
