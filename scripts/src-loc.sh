#!/bin/sh
# Non-test Rust lines per crate: every `.rs` file under `crates/*/src`
# and the root `src/`, counted up to its first `#[cfg(test)]` item.
# A `#[cfg(test)]` on a `mod name;` declaration is skipped instead and
# the file it names counts zero. This is the "Net LoC" number
# CHANGES.md entries report; run it at the parent and at the change and
# subtract.
#
#   scripts/src-loc.sh            one row per crate plus a total
#   scripts/src-loc.sh -f exec    one row per file of crates/exec/src
set -eu
cd "$(dirname "$0")/.."

count() { # "lines path" for each non-test file under directory $1
    find "$1" -name '*.rs' | sort | xargs awk '
        FNR == 1 { gated = 0; done = 0 }
        done { next }
        gated {
            gated = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
                name = $0; sub(/;.*/, "", name); sub(/.*mod /, "", name)
                dir = FILENAME; sub(/[^\/]*$/, "", dir)
                skip[dir name ".rs"] = 1
                next
            }
            done = 1; next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; n[FILENAME] += 0; next }
        { n[FILENAME] += 1 }
        END { for (f in n) if (!(f in skip)) print n[f], f }
    ' | sort -k2
}

if [ "${1:-}" = "-f" ]; then
    count "crates/$2/src" | awk '{ printf "%6d  %s\n", $1, $2; t += $1 } END { printf "%6d  total\n", t }'
    exit
fi

for dir in crates/*/src src; do
    printf '%6d  %s\n' "$(count "$dir" | awk '{ t += $1 } END { print t + 0 }')" "$dir"
done | awk '{ print; t += $1 } END { printf "%6d  total\n", t }'
