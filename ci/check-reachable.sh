#!/bin/sh
# Dead-package gate: every package under internal/ must be a dependency
# of something a user can run or import — a binary, an example, the
# benchmark driver or the root facade. Tests alone do not keep a package
# alive (internal/interposer sat unreached for two re-anchors that way).
set -e
reached="$(go list -deps ./cmd/... ./examples/... ./bench .)"
dead="$(go list ./internal/... | grep -vxF "$reached" || true)"
if [ -n "$dead" ]; then
    echo "internal packages no binary, example, bench or facade imports:" >&2
    echo "$dead" >&2
    exit 1
fi
echo "every internal package is reachable"
