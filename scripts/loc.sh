#!/bin/sh
# Code-only Rust line count per crate: non-blank, non-comment lines under
# crates/<crate>/src, outside `#[cfg(test)]` items. ROADMAP tracks the total.
# With `-c <crate>`, the same count per source file of that one crate.
# Usage: scripts/loc.sh [-c crate] [repo-root]
crate=
if [ "$1" = -c ]; then
    crate=${2:?usage: scripts/loc.sh [-c crate] [repo-root]}
    shift 2
fi
cd "${1:-$(dirname "$0")/..}" || exit 1

# Prints the code-line count of the Rust source on stdin.
count() {
    awk '
        skip == 1 {                      # inside a #[cfg(test)] item
            opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
            depth += opens - closes
            if (opens > 0) seen = 1
            if (seen && depth <= 0) skip = 0
            else if (!seen && /;[ \t]*$/) skip = 0   # `#[cfg(test)] use ...;`
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; seen = 0; next }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
if [ -n "$crate" ]; then
    [ -d "crates/$crate/src" ] || { echo "no such crate: $crate" >&2; exit 1; }
    for file in $(find "crates/$crate/src" -name '*.rs' | sort); do
        n=$(count < "$file")
        printf '%-28s %6d\n' "${file#crates/$crate/src/}" "$n"
        total=$((total + n))
    done
    printf '%-28s %6d\n' "$crate" "$total"
    exit 0
fi
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = vendor ] && continue
    n=$(find "$dir/src" -name '*.rs' -exec cat {} + | count)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
