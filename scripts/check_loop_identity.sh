#!/usr/bin/env bash
# Fails if a fact is keyed by a string, or a loop fact is looked up by the
# loop's label. A candidate loop's identity is its position in
# `dse_ir::loops::find_candidate_loops`; its label is only printed (DESIGN
# §8, "One record per candidate loop"). A verifier fact names variables by
# binding and expressions by shape (`dse_lang::ast::same_shape`), never by
# printed text (DESIGN §11).
#
#   scripts/check_loop_identity.sh
#
# Two rules, over the non-test part of each file (everything before its
# first `#[cfg(test)]` line, the split `net_loc.sh` uses):
#   1. `crates/{core,depprof,ir,verify}/src` name no `HashMap<String` (a
#      fact keyed by a printed name or expression; key it by id, binding
#      or shape);
#   2. `crates/{core,depprof,ir,verify}/src` compare no `.label` with
#      `==`/`!=`, apart from `Analysis::classification` and
#      `ProfileResult::by_label`, the by-label lookups that tests and
#      examples use.
# Prints each offending line and exits 1; exits 0 when there is none.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Prints "<file>:<line>: <text>" for each non-test line matching the ERE $1.
non_test_matches() {
    local pattern=$1
    shift
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -v pat="$pattern" '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test && $0 ~ pat { print FILENAME ":" FNR ": " $0 }'
}

label_cmp='\.label(\.as_str\(\))?[[:space:]]*[!=]=|[!=]=[[:space:]]*&?[A-Za-z_][A-Za-z0-9_.]*\.label([^A-Za-z0-9_]|$)'
allowed='^crates/core/src/lib\.rs:[0-9]+: +self\.classifications\.iter\(\)\.find\(\|c\| c\.label == label\)$'
allowed+='|^crates/depprof/src/lib\.rs:[0-9]+: +self\.loops\.iter\(\)\.find\(\|l\| l\.label == label\)$'
crates=(crates/core/src crates/depprof/src crates/ir/src crates/verify/src)

maps=$(non_test_matches 'HashMap<String' "${crates[@]}")
compares=$(non_test_matches "$label_cmp" "${crates[@]}" | grep -Ev "$allowed" || true)
status=0
if [ -n "$maps" ]; then
    echo "a map keyed by a String in dse-core/dse-depprof/dse-ir/dse-verify (key facts by id, binding or shape):"
    echo "$maps"
    status=1
fi
if [ -n "$compares" ]; then
    echo "a loop-label comparison outside tests (find the loop by candidate position):"
    echo "$compares"
    status=1
fi
exit $status
