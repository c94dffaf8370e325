#!/usr/bin/env bash
# Lint, test and smoke-run the benchmark package. It is a workspace of its
# own, so the root `cargo test` and the root CI never reach it.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline -- smoke
