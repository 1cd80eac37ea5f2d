#!/usr/bin/env bash
# Net Rust lines of the working tree against <base-ref>, split non-test /
# test — the per-PR report ROADMAP asks for, counted one way every time.
#
#   scripts/net_loc.sh <base-ref>        (stage new files first: git add -A)
#
# Scope: *.rs under crates/, tests/ and examples/ (benchmark/ is its own
# package and is excluded). `added`/`removed` are plain `git diff --numstat`;
# a rename is followed (-M), so a moved file counts as moved, not as a
# deletion plus an addition. The split: a file under a tests/ or benches/
# directory is all test; in any other file, everything from the first
# `#[cfg(test)]` line to the end is test. Informational: always exits 0
# once the base resolves.
set -euo pipefail
base=${1:?usage: scripts/net_loc.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "net_loc: unknown base ref '$base'" >&2
    exit 2
}

# Reads one file's text on stdin, prints "<non-test lines> <test lines>".
split() {
    case "$1" in
    tests/* | */tests/* | */benches/*) awk 'END { print 0, NR }' ;;
    *) awk '!t && /^[[:space:]]*#\[cfg\(test\)\]/ { t = NR }
            END { if (!t) t = NR + 1; print t - 1, NR - t + 1 }' ;;
    esac
}

printf '%-46s %6s %7s %9s %6s\n' file added removed non-test test
tot_add=0 tot_del=0 tot_n=0 tot_t=0
while IFS=$'\t' read -r -d '' add del path; do
    old=$path
    if [ -z "$path" ]; then # rename: the old and new paths follow
        IFS= read -r -d '' old
        IFS= read -r -d '' path
    fi
    read -r bn bt < <(git show "$base:$old" 2>/dev/null | split "$old")
    if [ -f "$path" ]; then
        read -r hn ht < <(split "$path" <"$path")
    else
        hn=0 ht=0
    fi
    printf '%-46s %+6d %+7d %+9d %+6d\n' "${path#crates/}" "$add" "-$del" $((hn - bn)) $((ht - bt))
    tot_add=$((tot_add + add)) tot_del=$((tot_del + del))
    tot_n=$((tot_n + hn - bn)) tot_t=$((tot_t + ht - bt))
done < <(git diff --numstat -M -z "$base" -- 'crates/*.rs' 'tests/*.rs' 'examples/*.rs')
printf '%-46s %+6d %+7d %+9d %+6d\n' total "$tot_add" "-$tot_del" "$tot_n" "$tot_t"
