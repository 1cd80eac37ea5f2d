#!/usr/bin/env bash
# Regenerates the paper's counted artifacts and diffs them against the
# tracked results/figures_all.txt (EXPERIMENTS.md quotes that file).
#
#   scripts/check_counted_figures.sh
#
# Compared: Table 5 and Figure 8 whole; Figure 9a/9b's instruction column;
# Figure 14 except dijkstra's row (its worker threads allocate queue nodes
# concurrently, so its heap peak is not a count). Never a wall-clock column.
# When a change moves a counted figure on purpose, regenerate the file with
# the command EXPERIMENTS.md records:
#   cargo run --release -p dse-bench --bin figures -- all > results/figures_all.txt
set -euo pipefail
cd "$(dirname "$0")/.."
tracked=results/figures_all.txt
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
# `figures` rewrites results/figures.json on every run; only stdout matters.
./target/release/figures table5 fig8 fig9 fig14 > "$fresh"
python3 - "$tracked" "$fresh" <<'PY'
import sys

def counted(path):
    rows, section = [], None
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("== "):
            section = line
            continue
        cols = line.split()
        if not cols or section is None:
            continue
        if section.startswith(("== Table 5", "== Figure 8")):
            rows.append((section, line))
        elif section.startswith("== Figure 9"):
            rows.append((section, " ".join(cols[:2])))
        elif section.startswith("== Figure 14") and cols[0] != "dijkstra":
            rows.append((section, line))
    return rows

tracked, fresh = counted(sys.argv[1]), counted(sys.argv[2])
assert fresh, "figures printed nothing to compare"
stale = [(a, b) for a, b in zip(tracked, fresh) if a != b]
if stale or len(tracked) != len(fresh):
    for (section, old), (_, new) in stale:
        print(f"{section}\n  tracked: {old}\n  now:     {new}")
    print(f"{len(stale)} counted row(s) differ ({len(tracked)} tracked, {len(fresh)} regenerated): "
          "regenerate results/figures_all.txt (see the header of this script)")
    sys.exit(1)
print(f"results/figures_all.txt: {len(fresh)} counted rows agree")
PY
