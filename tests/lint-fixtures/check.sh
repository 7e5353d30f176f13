#!/bin/sh
# The negative gate for the workspace's lint policy: lints this crate
# and fails unless the findings, counted per (file, lint), equal
# expected.txt. Every bad_* module must raise exactly its lint, as
# often as listed; every other module must raise nothing. Lint names
# are compared, never message text. Needs cargo, clippy and jq.
#
#   tests/lint-fixtures/check.sh
set -eu
export LC_ALL=C
cd "$(dirname "$0")"
# The crate fails to compile by design (its findings are denied), so
# clippy's exit status is ignored; lib and lib-test both report a
# finding outside `cfg(test)`, so findings are deduplicated by position.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
actual=$(cargo clippy --offline --all-targets --message-format=json 2>"$log" \
    | jq -r 'select(.reason == "compiler-message") | .message | select(.code != null)
        | "\(.spans[0].file_name):\(.spans[0].line_start):\(.spans[0].column_start) \(.code.code)"' \
    | sort -u | sed 's/:[0-9]*:[0-9]* / /' | sort | uniq -c | awk '{print $2, $3, $1}')
if [ "$actual" != "$(cat expected.txt)" ]; then
    echo "lint fixtures: findings differ from expected.txt (-expected +actual):"
    printf '%s\n' "$actual" | diff -u expected.txt - || true
    echo "cargo's own output:"
    cat "$log"
    exit 1
fi
echo "lint fixtures: every finding as expected"
