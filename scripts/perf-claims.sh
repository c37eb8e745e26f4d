#!/bin/sh
# Performance figures in README.md and DESIGN.md with nothing behind
# them: every ratio (`2.5x`, `1.5-1.8×`) or time (`0.5 ms`, `10 s`) in
# their prose that has neither a `BENCHMARK.json` name (a workload or a
# metric) nor a test name (a `#[test]` function, or an integration test
# file such as `kernel_rate.rs`) within 5 lines of it. Fenced blocks are transcripts and code,
# not claims, and are skipped.
#
#   scripts/perf-claims.sh        one `file:line: figure | text` per claim,
#                                 then a count; exits 0 either way
set -eu
cd "$(dirname "$0")/.."

known=$(mktemp)
trap 'rm -f "$known"' EXIT

# Every name BENCHMARK.json declares.
sed -n 's/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json >"$known"
# Every test function, and every integration test target.
find crates src tests -name '*.rs' | sort | xargs awk '
    /#\[test\]/ { want = 1; next }
    want && /fn [a-z_0-9]+/ {
        name = $0; sub(/.*fn /, "", name); sub(/[^a-z_0-9].*/, "", name)
        print name; want = 0
    }
' >>"$known"
find crates/*/tests tests -maxdepth 1 -name '*.rs' | sed 's|.*/||' >>"$known"

awk -v radius=5 -v known="$known" -v docs="README.md DESIGN.md" '
    BEGIN { nfiles = split(docs, files, " ") }
    FILENAME == known { name[$0] = 1; next }
    FNR == 1 { fenced = 0 }
    /^[[:space:]]*```/ { fenced = !fenced; next }
    {
        line[FILENAME, FNR] = $0
        last[FILENAME] = FNR
        # Does this line name a benchmark key or a test?
        n = split($0, tok, /[^A-Za-z0-9_.]+/)
        for (k = 1; k <= n; k++) {
            t = tok[k]; sub(/\.+$/, "", t)
            if (t in name) { named[FILENAME, FNR] = 1; break }
        }
        if (fenced) next
        # A ratio (digits, optional decimals, then x or ×, not followed
        # by a digit: `2x2` is a grid) or a time in s, ms, µs or ns.
        rest = $0
        while (match(rest, /[0-9]+(\.[0-9]+)?(x|×| ?(s|ms|µs|ns))/)) {
            fig = substr(rest, RSTART, RLENGTH)
            pre = RSTART > 1 ? substr(rest, RSTART - 1, 1) : " "
            rest = substr(rest, RSTART + RLENGTH)
            if (pre ~ /[A-Za-z0-9_.]/ || rest ~ /^[A-Za-z0-9_]/) continue
            claims[FILENAME, FNR] = claims[FILENAME, FNR] (claims[FILENAME, FNR] == "" ? "" : ", ") fig
        }
    }
    END {
        total = 0
        for (f = 1; f <= nfiles; f++) {
            file = files[f]
            for (i = 1; i <= last[file]; i++) {
                if (!((file, i) in claims)) continue
                backed = 0
                for (j = i - radius; j <= i + radius; j++)
                    if ((file, j) in named) { backed = 1; break }
                if (backed) continue
                text = line[file, i]; sub(/^[[:space:]]+/, "", text)
                printf "%s:%d: %s | %s\n", file, i, claims[file, i], text
                total++
            }
        }
        printf "%d performance figure(s) with no BENCHMARK.json key or test within %d lines\n", total, radius
    }
' "$known" README.md DESIGN.md
