#!/usr/bin/env bash
# Rebuild perfbench/lint_tree.tar.gz, the fixed input of the lint_cold
# workload: src/, pyproject.toml and benchmarks/results/ of one commit.
# benchmarks/results/ is needed because REP401 checks that every
# experiment has a committed result file.
#
#   bash perfbench/pin_lint_tree.sh [COMMIT]
set -euo pipefail
commit="${1:-cf8358a}"
cd "$(dirname "$0")/.."
git archive --format=tar "$commit" src pyproject.toml benchmarks/results \
    | gzip -n -9 > perfbench/lint_tree.tar.gz
echo "pinned $(git rev-parse --short "$commit") into perfbench/lint_tree.tar.gz"
