#!/usr/bin/env bash
# Builds the repository's `experiments` binary and the ladder harness in
# release mode, then runs one ladder workload. Run from the repository
# root:
#
#   bash ladder/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
#
# Both builds share CARGO_TARGET_DIR (default `.bench_build`), which is
# how the harness finds `experiments` next to itself.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p rmm-experiments
cargo build --release --offline --quiet --manifest-path ladder/Cargo.toml
exec "$CARGO_TARGET_DIR/release/rmm-ladder" "$@"
