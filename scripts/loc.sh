#!/bin/sh
# Code-only Rust line count per crate: non-blank, non-comment lines under
# crates/<crate>/src, outside `#[cfg(test)]` items. ROADMAP tracks the total.
# Usage: scripts/loc.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = vendor ] && continue
    n=$(find "$dir/src" -name '*.rs' -exec cat {} + | awk '
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
        END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
