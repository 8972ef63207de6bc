#!/bin/sh
# Ratcheted coverage gate: total statement coverage must not drop below
# ci/coverage-floor.txt. Raise the floor when coverage grows; never lower
# it. The profile is taken over the product packages — every package but
# the benchmark driver, `go list ./... | grep -v '^memories/bench$'` —
# as `make cover-check` and ci.yml do.
# Usage: ci/check-coverage.sh <coverprofile>
set -e
profile="${1:-cover.out}"
floor="$(cat "$(dirname "$0")/coverage-floor.txt")"
total="$(go tool cover -func="$profile" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
if [ -z "$total" ]; then
    echo "check-coverage: no total in $profile" >&2
    exit 1
fi
awk -v t="$total" -v f="$floor" 'BEGIN {
    if (t + 0 < f + 0) {
        printf "coverage %.1f%% is below the ratchet floor %.1f%%\n", t, f
        exit 1
    }
    printf "coverage %.1f%% >= floor %.1f%%\n", t, f
}'
