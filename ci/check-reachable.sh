#!/bin/sh
# Reachability gates: what the repository keeps, documents and tests is
# what something a user can run or import actually contains. Tests alone
# keep nothing alive (internal/interposer sat unreached for two
# re-anchors that way; checkpoint.Rotation for eighteen PRs).
#
# 1. Packages: every package under internal/ is a dependency of a
#    binary, an example, the benchmark driver or the root facade.
# 2. Functions: every function a product package declares is linked
#    into at least one of those binaries, or is listed in
#    ci/test-only-api.txt with the reason tests (or library users of the
#    root facade) need it. The linker decides: binaries are built without
#    inlining, so a function some binary calls keeps its symbol. The list
#    is held in both directions, so it cannot rot.
set -e
cd "$(dirname "$0")/.."
mains="./cmd/... ./examples/... ./bench"

reached="$(go list -deps $mains .)"
dead="$(go list ./internal/... | grep -vxF "$reached" || true)"
if [ -n "$dead" ]; then
    echo "internal packages no binary, example, bench or facade imports:" >&2
    echo "$dead" >&2
    exit 1
fi
echo "every internal package is reachable"

allow=ci/test-only-api.txt
max_listed=60
noinline=-gcflags=all=-l
module="$(go list -m)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# symbols reads `go tool nm` output and prints this module's text
# symbols, one name per function as the source declares it: generic
# instantiations and shapes fold onto the generic name, and closures
# (.funcN), goroutine and defer wrappers, method values (-fm) and
# package initialisers are dropped, because the compiler made those.
symbols() {
    sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
        sed -E 's/\[.*\]//' |
        grep -E "^$module[./]" |
        grep -vE '\.(func|gowrap|deferwrap)[0-9]+|\.init(\.|$)|-fm$' |
        sort -u
}

go list -export $noinline -f '{{if ne .Name "main"}}{{.Export}}{{end}}' ./... |
    xargs -n1 go tool nm | symbols >"$tmp/declared"
i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' $mains); do
    i=$((i + 1))
    go build $noinline -o "$tmp/bin$i" "$pkg"
    go tool nm "$tmp/bin$i"
done | symbols >"$tmp/linked"

# A value-receiver method T.M also gets a compiler-made (*T).M wrapper
# that is linked only when called through a pointer-typed interface;
# T.M itself is judged, the wrapper is not.
comm -23 "$tmp/declared" "$tmp/linked" |
    awk 'NR == FNR { declared[$0]; next }
         { value = $0
           if (sub(/\(\*/, "", value) && sub(/\)\./, ".", value) && value in declared) next
           print }' "$tmp/declared" - >"$tmp/unlinked"
sed -E 's/[[:space:]]*#.*//; /^$/d' "$allow" | sort -u >"$tmp/listed"

fail=0
unlisted="$(comm -23 "$tmp/unlinked" "$tmp/listed")"
if [ -n "$unlisted" ]; then
    echo "functions no binary links — delete them, or list them in $allow with the reason:" >&2
    echo "$unlisted" >&2
    fail=1
fi
stale="$(comm -13 "$tmp/unlinked" "$tmp/listed")"
if [ -n "$stale" ]; then
    echo "listed in $allow but now linked by a binary, or no longer declared — drop the line:" >&2
    echo "$stale" >&2
    fail=1
fi
listed="$(wc -l <"$tmp/listed")"
if [ "$listed" -gt "$max_listed" ]; then
    echo "$allow lists $listed functions; the budget is $max_listed" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "every declared function is linked by a binary or listed in $allow ($listed listed)"
