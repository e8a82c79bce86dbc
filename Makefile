GO ?= go
FUZZTIME ?= 10s
# cover fails when total statement coverage drops below this.
COVER_MIN ?= 70

.PHONY: all build test race vet fmt fuzz-smoke fuzz bench-check bench-micro chaos cover loc ci

all: build

build:
	$(GO) build ./...

# The benchmark (BENCHMARK.json, bench/) is a module of its own, so
# the root ./... patterns do not reach it: vet it and run its tests —
# unit tests plus a ~14 s smoke pass of all four workloads and a traced
# run through the real binaries. Numbers come from `bash bench/run.sh`
# and `carbench -compare`; see bench/README.md.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The engine's numbers without carbench: ns and allocations per record
# of one Engine.Run (one worker, two, and the machine's count, and one
# worker with a load source, so the load-dependent stages run), a
# full-state snapshot encode (file mode and with a load source, bytes
# per stage frame) and its restore, a run
# that cuts 16 checkpoints (ms, ingest stall and bytes allocated per cut,
# at one worker, two and four), all on the benchmark's generated
# 1 600-car fleet; the fold of a full-window miss on the 400-car serve
# fleet (its operands listed and built as a miss does: 13 memoised day
# roll-ups, the day so far's and the live hour restored, then Finalize;
# with the day so far as one memo 31 → 15 operands, 18 → 1 hours
# restored and 6.1–6.7 → 4.2–5.1 ms per fold, 2-vCPU box; at one proc
# and at two, since the fold merges its stages on every core and one
# proc is the inline path),
# and that fleet's cold drain through the query store as carqueryd runs
# it (ns per record, the store mutex each cut holds, bytes allocated);
# what one foreign row costs a shard worker, skipped below the parse
# against the FilterFunc pipeline it replaced, per codec; and what a
# record costs the ingest layers a dispatcher reads through (a
# ResilientReader over OpenFiles of a binary fleet), read one at a time
# against 512-record batches, in ns and allocations per record; and what
# generating that 1 600-car fleet costs (GenerateAll, ns and allocations
# per record) with the nearest-station query behind every route step
# (ns per query on the generator's default network, allocating nothing);
# and what default mode's record-level figures cost on that fleet beyond
# the engine (the exhibit pick beside the engine's read plus the collect
# pass after it, ns and allocations per record).
# For working on the hot path, not for claims: a gain is claimed from
# paired `bash bench/run.sh` runs. The allocation guards themselves are
# plain tests, so `make ci` enforces them.
bench-micro:
	$(GO) test -run='^$$' -bench='^(BenchmarkEngineRun|BenchmarkCheckpointedRun|BenchmarkSnapshotEncode|BenchmarkSnapshotRestore|BenchmarkExhibits)$$' -benchmem -count=5 ./internal/analysis
	$(GO) test -run='^$$' -bench='^BenchmarkWindowFold$$' -cpu 1,2 -benchmem -count=5 ./internal/query
	$(GO) test -run='^$$' -bench='^BenchmarkStoreColdIngest$$' -benchmem -count=5 ./internal/query
	$(GO) test -run='^$$' -bench='^(BenchmarkShardScan|BenchmarkIngest)$$' -benchmem -count=5 ./internal/cdr
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate$$' -benchmem -count=5 ./internal/synth
	$(GO) test -run='^$$' -bench='^BenchmarkNearestStation$$' -benchmem -count=5 ./internal/radio

test:
	$(GO) test ./...

# The first line is the suite's one whole run in ci, and writes the
# coverage profile cover checks. The second runs the engine's dispatcher
# tests again at one proc, where an engine left to size itself starts one
# worker (the path every run took before -workers defaulted to the
# machine), and at four, more than the CI box has. The third does the
# same for the query store's cuts: one proc takes the inline encode, four
# runs more encoders than the box has CPUs; and for its memoised day
# roll-ups, which concurrent misses fold as they are and extend hour by
# hour. Both lines also run the set merges and window folds, whose
# stages merge inline at one proc and on four goroutines at four.
race:
	$(GO) test -race -coverprofile=cover.out ./...
	$(GO) test -race -cpu 1,4 -run 'Engine|Checkpoint|Resume|Streaming|Merge|Ordered' ./internal/analysis
	$(GO) test -race -cpu 1,4 -run 'Cut|Checkpoint|Restore|Sealed|Rollup|Fold|Window' ./internal/query

# Every package whose tests start a child process, under the race
# detector: the coordinator fault-tolerance suite (workers killed
# mid-stream, hung until speculation or timeout, bit-flipped snapshots
# quarantined), each binary's CLI tests (the SIGTERM-checkpoint,
# corrupt- and degraded-partial paths, the coordinator under injected
# crashes, the daemon's SIGTERM cut and quarantine flush, cargen's flag
# refusals) and internal/clitest, the harness that starts their
# children, or adopts the workers the in-process coordinator starts, and
# whose own tests hold its leak checks to failing. -count=1
# defeats the test cache — chaos runs must actually run.
chaos:
	$(GO) test -race -count=1 ./internal/drive/ ./internal/clitest/ ./cmd/caranalyze/ ./cmd/carmerge/ ./cmd/cardrive/ ./cmd/carqueryd/ ./cmd/cargen/

# STATICCHECK pins the honnef.co/go/tools version CI installs; vet
# runs it when the binary is on PATH and degrades to a warning when it
# is not (the offline dev loop must not require a network install).
STATICCHECK_VERSION ?= 2024.1.1

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it via honnef.co/go/tools@$(STATICCHECK_VERSION))"; \
	fi

# Gate: the tree must be gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Statement coverage with a floor: prints the total of the cover.out the
# race pass wrote (running the suite for one only when there is none)
# and fails when it drops below COVER_MIN.
cover:
	@test -f cover.out || $(GO) test -coverprofile=cover.out ./...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}')"; \
	echo "total statement coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= m+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# The size ROADMAP aim 2 is judged by: lines of Go outside bench/, split
# non-test / _test.go, and bench/ beside them. It counts the working
# tree: tracked files that still exist plus untracked ones .gitignore
# does not exclude, so a count taken before `git add` is the one after.
LOC_FILES = git ls-files --cached --others --exclude-standard -- $(1) | while read -r f; do [ -f "$$f" ] && echo "$$f"; done

loc:
	@echo "non-test Go lines outside bench/: $$($(call LOC_FILES,'*.go') | grep -v -e '^bench/' -e '_test\.go$$' | xargs cat | wc -l)"
	@echo "_test.go lines outside bench/:    $$($(call LOC_FILES,'*_test.go') | grep -v '^bench/' | xargs cat | wc -l)"
	@echo "Go lines under bench/:            $$($(call LOC_FILES,'bench/*.go') | xargs cat | wc -l)"

# Every fuzz target, as package:pattern: the codec entry points (each
# also holding ReadBatch to Read), the shard readers' partition of what
# the unsharded reader returns, ReadBatch against Read through the
# resilient reader's checks on chaos-made faults, the
# snapshot container and decoder (against the one it replaced), the
# Unix-nanosecond sessionizer against the time.Time one it replaced, the
# analysis restore path, the ordered fold's grouping property, the
# record-level figures' exhibit picker against the whole-slice rules it
# replaced and the coordinator's journal replay. go test accepts one -fuzz pattern per
# invocation, hence one run per target, and a pattern is anchored where
# one target's name prefixes another's.
FUZZ_TARGETS = \
	./internal/cdr:^FuzzCSVReader$$ \
	./internal/cdr:FuzzCSVReaderMatchesEncodingCSV \
	./internal/cdr:FuzzBinaryReader \
	./internal/cdr:FuzzShardReadersPartitionInput \
	./internal/cdr:FuzzResilientReadBatchMatchesRead \
	./internal/snapshot:FuzzReader \
	./internal/snapshot:FuzzDecoderMatchesReference \
	./internal/clean:FuzzSessionizerMatchesReference \
	./internal/analysis:FuzzReadPartial \
	./internal/analysis:FuzzMergeOrderedGrouping \
	./internal/analysis:FuzzExhibitsMatchOracle \
	./internal/drive:FuzzJournalReplay

# Short runs of every fuzz target, part of ci.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test $${t%%:*} -run='^$$' -fuzz='$${t#*:}' -fuzztime=$(FUZZTIME)"; \
		$(GO) test $${t%%:*} -run='^$$' -fuzz="$${t#*:}" -fuzztime=$(FUZZTIME); \
	done

# The same targets for 5 minutes each, for a change to a decoder, a
# codec or the sessionizer; not part of ci.
fuzz:
	@$(MAKE) --no-print-directory fuzz-smoke FUZZTIME=5m

ci: fmt vet build race chaos bench-check fuzz-smoke
