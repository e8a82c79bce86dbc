#!/bin/sh
# The driver's entry point: build carbench in the benchmark's own
# module and run it from the caller's directory, keeping the Go build
# cache inside the checkout so that a run reads and writes nothing
# outside it.
set -e
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOMODCACHE="$here/out/gomod" GOTOOLCHAIN=local
(cd "$here" && go build -o out/carbench ./carbench)
exec "$here/out/carbench" "$@"
