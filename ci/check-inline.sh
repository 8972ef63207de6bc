#!/bin/sh
# Inlining guard: the board's per-transaction loop relies on these leaves
# being inlined into it. The compiler inlines a function only while its
# cost stays within a fixed budget, so one added line can turn a leaf into
# a call on every transaction — a slip of a few percent, which the
# benchmark's run-to-run noise cannot resolve and this check can.
# (*TagStore).Schedule sits exactly at the budget. The cache's address
# calls (Find, Probe, AccessSlot, Access, FillAt) are one-line wrappers
# over the set-and-tag calls; inlined, they keep the host's L1/L2 lookups
# one call deep. The host's per-reference path — a merged-stream Step
# and a per-CPU wake alike — crosses (*cpu).schedule, (*cpu).syncClock
# and the carry-to-clock helper (*cpu).accrue. The event heap's sift
# loops compare with wheelEvent.less, and the per-CPU RunCycles loop
# calls (*eventWheel).Peek once per event. The board probes
# (*Tracer).Enabled and (*Mirror).Requested once per Snoop and once per
# SnoopBatch, so an idle tracer or mirror costs one atomic load. The
# merged-stream host's look-ahead hints each reference's coherence-cache
# set and presence rows through (*Cache).Hint and (*presence).hint; each
# must stay a single call of internal/prefetch's assembly. Budgets belong
# to the toolchain, so run this with the one the benchmark is measured
# with.
set -e
cd "$(dirname "$0")/.."
leaves='(*Cache).TouchSet
(*Cache).Hint
(*presence).hint
(*Cache).Find
(*Cache).Probe
(*Cache).AccessSlot
(*Cache).Access
(*Cache).FillAt
(*Counter).Inc
(*Board).enqueue
(*Engine).Lookup
(*TagStore).Schedule
(*cpu).schedule
(*cpu).syncClock
(*cpu).accrue
wheelEvent.less
(*eventWheel).Peek
(*Tracer).Enabled
(*Mirror).Requested'

inlinable="$(go build -gcflags=-m ./internal/core ./internal/cache ./internal/stats ./internal/coherence ./internal/sdram ./internal/host ./internal/obs 2>&1 |
    sed -n 's/.*: can inline \([^ ]*\).*/\1/p' | sort -u)"
missing="$(echo "$leaves" | grep -vxF "$inlinable" || true)"
if [ -n "$missing" ]; then
    echo "hot-loop leaves the compiler no longer inlines — make them small again:" >&2
    echo "$missing" >&2
    exit 1
fi
echo "every hot-loop leaf is inlinable ($(echo "$leaves" | wc -l) checked)"
