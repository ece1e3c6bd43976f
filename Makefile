# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint ftlint bench experiments experiments-full \
	fuzz-smoke bench-ci bench-baseline bench-check ftserve-smoke cli-smoke \
	examples-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static contract gate: go vet plus the in-tree ftlint analyzers
# (determinism, deadexport, hotpath, seamcontract — see
# internal/analysis), and go vet of the e2ebench module, which ./... does
# not reach (it is a module of its own), so a root API change that breaks
# it fails here. ftlint takes no arguments: it always loads the whole
# module, e2ebench included, in one pass. Single source of truth: the CI
# lint job runs exactly this target.
lint:
	$(GO) vet ./...
	cd e2ebench && $(GO) vet .
	$(GO) run ./cmd/ftlint

# ftlint alone (skip vet), e.g. while iterating on suppressions.
ftlint:
	$(GO) run ./cmd/ftlint

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Regenerate the committed quick-mode experiment tables. Deterministic:
# reruns must leave every byte identical — the CI determinism job runs
# this and fails on `git diff EXPERIMENTS.md`.
experiments:
	$(GO) run ./cmd/ftbench -mode quick -o EXPERIMENTS.md

# Full-mode tables (larger ν, more trials — minutes, not seconds). Output
# is not committed; the manual-dispatch CI job uploads it as an artifact.
experiments-full:
	$(GO) run ./cmd/ftbench -mode full -o EXPERIMENTS-full.md

# Open-loop serving determinism smoke: the ftserve report must be a pure
# function of its flags, so two fixed-seed runs must be byte-identical
# (and exit clean). CI runs this in the test job.
ftserve-smoke:
	@set -e; \
	$(GO) run ./cmd/ftserve -seed=7 -eps=0.002 -duration=120 -report=30 > ftserve-a.out; \
	$(GO) run ./cmd/ftserve -seed=7 -eps=0.002 -duration=120 -report=30 > ftserve-b.out; \
	cmp ftserve-a.out ftserve-b.out || { echo "ftserve report not deterministic"; exit 1; }; \
	$(GO) run ./cmd/ftserve -seed=9 -arrival=mmpp -pattern=hotspot -duration=120 -report=30 > ftserve-a.out; \
	$(GO) run ./cmd/ftserve -seed=9 -arrival=mmpp -pattern=hotspot -duration=120 -report=30 > ftserve-b.out; \
	cmp ftserve-a.out ftserve-b.out || { echo "ftserve report not deterministic"; exit 1; }; \
	rm -f ftserve-a.out ftserve-b.out; \
	echo "ftserve smoke: deterministic"

# CLI input-validation smoke: every invocation below is a bad flag value
# that must exit 1 with a message on stderr. A panic (exit 2) or a run
# that never ends (timeout's 124) fails the target. ftsim, ftroute and
# ftnetgen have no tests of their own, so this is their gate. The last
# seven ask for networks whose size arithmetic wraps int (ν ≥ 30, a huge
# M or γ), which core.Build must refuse. CI runs this in the test job.
CLI_BAD := \
	"ftserve -rate NaN" \
	"ftserve -rate +Inf" \
	"ftserve -arrival mmpp -rate +Inf" \
	"ftserve -hold NaN" \
	"ftserve -hold +Inf" \
	"ftserve -duration NaN" \
	"ftserve -duration +Inf" \
	"ftserve -arrival diurnal -duration NaN" \
	"ftserve -pattern hotspot -hotfrac NaN" \
	"ftserve -report NaN" \
	"ftserve -report +Inf" \
	"ftsim -nu 1 -trials -3" \
	"ftsim -trials 0" \
	"ftsim -kind benes -k 3 -trials -2" \
	"ftsim -churn -5" \
	"ftroute -ops -5" \
	"ftnetgen -kind bogus" \
	"ftnetgen -kind benes -k 0" \
	"ftnetgen -kind network-n -nu 0" \
	"ftnetgen -kind clos -r 0" \
	"ftnetgen -kind superconcentrator -n 0" \
	"ftnetgen -kind superconcentrator -n 16 -d 2" \
	"ftnetgen -kind multibutterfly -k 3 -d 0" \
	"ftroute -nu 30" \
	"ftnetgen -kind network-n -nu 30" \
	"ftroute -m 2000000000000000000" \
	"ftsim -nu 32" \
	"ftserve -nu 32" \
	"ftnetgen -kind network-n -nu 32" \
	"ftsim -gamma 40 -trials 1"

cli-smoke:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for c in ftserve ftsim ftroute ftnetgen; do $(GO) build -o "$$bin/$$c" ./cmd/$$c; done; \
	bad=0; \
	for inv in $(CLI_BAD); do \
		st=0; timeout 20 "$$bin"/$$inv > /dev/null 2> "$$bin/stderr" || st=$$?; \
		if [ $$st -ne 1 ] || [ ! -s "$$bin/stderr" ]; then \
			echo "FAIL: $$inv exited $$st (want 1 with a message on stderr)"; \
			cat "$$bin/stderr"; bad=1; \
		fi; \
	done; \
	[ $$bad -eq 0 ]; \
	echo "cli smoke: every bad invocation exits 1 with a message"

# Examples smoke: build and run every program under examples/; a non-zero
# exit (or a run past the timeout) fails the target and prints the
# example's output. CI runs this in the test job.
examples-smoke:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for d in examples/*/; do \
		e=$$(basename "$$d"); \
		$(GO) build -o "$$bin/$$e" "./$$d"; \
		st=0; timeout 60 "$$bin/$$e" > "$$bin/out" 2>&1 || st=$$?; \
		if [ $$st -ne 0 ]; then \
			echo "FAIL: example $$e exited $$st"; cat "$$bin/out"; exit 1; \
		fi; \
	done; \
	echo "examples smoke: every example exits 0"

# --- fuzz smoke -------------------------------------------------------------
# Single source of truth for the fuzz-smoke set: CI invokes this target, so
# adding a fuzzer here is all it takes to gate it everywhere.

FUZZTIME ?= 10s
FUZZERS := \
	./internal/core:FuzzIncrementalRepairMasks \
	./internal/core:FuzzBatchedMajorityAccess \
	./internal/core:FuzzBatchChurnVsPerOp \
	./internal/route:FuzzShardedVsSequential \
	./internal/route:FuzzIncrementalGuide \
	./internal/hyperx:FuzzBuild \
	./internal/circulant:FuzzBuild

fuzz-smoke:
	@set -e; for t in $(FUZZERS); do \
		pkg=$${t%%:*}; fz=$${t##*:}; \
		echo "== fuzz $$fz ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -run=NONE -fuzz="^$$fz$$" -fuzztime=$(FUZZTIME); \
	done

# --- benchmark regression gate ----------------------------------------------
# The tier-1 gated benchmark set: every hot path with a committed number in
# BENCH.json. bench-ci measures it (-count=6 at -cpu=1, folded by min in
# benchdiff), bench-check gates against the committed baseline (>15%
# ns/op regression, or any allocs/op increase, fails), bench-baseline
# refreshes the baseline.

BENCH_GATED := BenchmarkShardedChurn|BenchmarkShardedChurnParallel|BenchmarkGreedyConnect|BenchmarkEvaluatorBatchTrial|BenchmarkEvaluatorBatchCertTrial|BenchmarkEvaluatorShardedChurnTrial|BenchmarkZooBatchCertTrial|BenchmarkZooShardedChurnTrial|BenchmarkMonteCarloTheorem2Engine|BenchmarkMonteCarloCertificateEngine|BenchmarkWitnessChecks|BenchmarkOpenLoopServe|BenchmarkIncrementalGuideEpoch
BENCH_COUNT ?= 6
BENCH_TIME ?= 0.6s

# -cpu=1 pins the gated pass to one P: worker-pool benchmarks otherwise
# allocate (and scale) with GOMAXPROCS, which would make the allocs/op
# gate depend on the runner's core count instead of the code. No pipe: a
# failed benchmark run must fail the target, not hand benchdiff a
# truncated file.
bench-ci:
	$(GO) test -run=NONE -bench '^($(BENCH_GATED))$$' -count=$(BENCH_COUNT) \
		-benchtime=$(BENCH_TIME) -benchmem -cpu=1 . > bench.out || \
		{ cat bench.out; exit 1; }
	@cat bench.out

bench-baseline: bench-ci
	$(GO) run ./cmd/benchdiff -emit -commit "$$(git rev-parse --short HEAD)" \
		< bench.out > BENCH.json
	@echo "wrote BENCH.json"

bench-check: bench-ci
	$(GO) run ./cmd/benchdiff -baseline BENCH.json < bench.out
