#!/usr/bin/env bash
# Smoke test of the benchmark: one round of every workload, traced, with
# full output checking. Under 30 s once built; exits non-zero if any
# operation fails, any exact count does not repeat, or the ledger leaves
# more than 5% of an operation unaccounted for.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --rounds 1 --trace 1 --out benchmark/out/smoke.json | grep -E '^(==|  problem)'
echo "smoke: ok"
