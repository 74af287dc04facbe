#!/usr/bin/env bash
# One line for CI: the harness's unit tests, then a smoke run of every
# workload (same code paths and output schema as a full run, about 70 s).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path perf/Cargo.toml
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- run --smoke
