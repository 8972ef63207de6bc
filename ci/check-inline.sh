#!/bin/sh
# Inlining guard: the board's per-transaction loop relies on these leaves
# being inlined into it. The compiler inlines a function only while its
# cost stays within a fixed budget, so one added line can turn a leaf into
# a call on every transaction — a slip of a few percent, which the
# benchmark's run-to-run noise cannot resolve and this check can.
# (*TagStore).Schedule sits exactly at the budget. The cache's address
# calls (Find, Probe, AccessSlot, Access, FillAt) are one-line wrappers
# over the set-and-tag calls; inlined, they keep the host's L1/L2 lookups
# one call deep. Budgets belong to the toolchain, so run this with the
# one the benchmark is measured with.
set -e
cd "$(dirname "$0")/.."
leaves='(*Cache).TouchSet
(*Cache).Find
(*Cache).Probe
(*Cache).AccessSlot
(*Cache).Access
(*Cache).FillAt
(*Counter).Inc
(*Board).enqueue
(*Engine).Lookup
(*TagStore).Schedule'

inlinable="$(go build -gcflags=-m ./internal/core ./internal/cache ./internal/stats ./internal/coherence ./internal/sdram 2>&1 |
    sed -n 's/.*: can inline \([^ ]*\).*/\1/p' | sort -u)"
missing="$(echo "$leaves" | grep -vxF "$inlinable" || true)"
if [ -n "$missing" ]; then
    echo "hot-loop leaves the compiler no longer inlines — make them small again:" >&2
    echo "$missing" >&2
    exit 1
fi
echo "every hot-loop leaf is inlinable ($(echo "$leaves" | wc -l) checked)"
