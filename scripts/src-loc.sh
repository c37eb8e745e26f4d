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
#   scripts/src-loc.sh --diff REV one row per crate: lines at REV (a
#                                 `git archive` of it in a temp dir), in
#                                 the working tree, and the difference
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

crates() { # "lines dir" per crate of the tree at $1
    (cd "$1" && for dir in crates/*/src src; do
        printf '%d %s\n' "$(count "$dir" | awk '{ t += $1 } END { print t + 0 }')" "$dir"
    done)
}

if [ "${1:-}" = "--diff" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$2" crates src | tar -x -C "$tmp"
    crates "$tmp" >"$tmp/base"
    crates . | awk -v rev="$2" '
        NR == FNR { base[$2] = $1; next }
        FNR == 1 { printf "%6s %6s %6s  %s\n", "base", "tree", "diff", "(base: " rev ")" }
        { printf "%6d %6d %+6d  %s\n", base[$2], $1, $1 - base[$2], $2
          b += base[$2]; t += $1; delete base[$2] }
        END {
            for (d in base) { printf "%6d %6d %+6d  %s\n", base[d], 0, -base[d], d; b += base[d] }
            printf "%6d %6d %+6d  total\n", b, t, t - b
        }' "$tmp/base" -
    exit
fi

crates . | awk '{ printf "%6d  %s\n", $1, $2; t += $1 } END { printf "%6d  total\n", t }'
