#!/usr/bin/env bash
# Builds the binary under test and the ledger into one target directory,
# then runs the ledger with the given arguments. Run from the repository
# root: cargo reads .cargo/config.toml (the rustflags) from there.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p bulk-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
