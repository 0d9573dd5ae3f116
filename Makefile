GO ?= go

.PHONY: all build check vet lint lint-baseline test race smoke race-smoke bench bench-gate bench-trace experiments-output size clean

all: build

build:
	$(GO) build ./...

# check is the verification gate: static analysis (vet + the simlint
# invariant suite), the full test suite under the race detector (the
# trace ring is the shared-state hot spot), a sanitized smoke run of
# every architecture, and a race-checked parallel smoke of the runner
# pool.
check: vet lint race smoke race-smoke

vet:
	$(GO) vet ./...

# lint runs the project's own go/types-based analyzers (determinism,
# cycleflow, hotalloc, statreg, neutral, cachekey) over the whole
# module, emitting SARIF for code scanning alongside the terminal
# findings. See cmd/simlint and the "Correctness tooling" section of
# the README.
lint:
	$(GO) run ./cmd/simlint -sarif simlint.sarif

# lint-baseline regenerates the committed suppression ledger from the
# current findings and fails if it no longer matches the checked-in
# file — run it (and commit the diff) after deliberately accepting or
# burning down inventoried debt.
lint-baseline:
	$(GO) run ./cmd/simlint -write-baseline
	git diff --exit-code .simlint-baseline.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke runs one reduced-size workload per traffic pattern on all three
# architectures with the runtime sanitizer on: every memory transaction
# is checked for MESI legality, directory/L1 agreement, inclusion,
# cycle monotonicity and MSHR drain, and any violation panics with an
# event trail.
smoke:
	$(GO) run ./cmd/cmpsim -workload eqntott -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload fft -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload mp3d -quick -sanitize

# race-smoke drives both parallelism axes under the race detector on
# real simulations, not just the unit tests. First the internal/runner
# worker pool: all three architectures of a sanitized quick workload run
# concurrently on 4 workers, proving the pool's job isolation (no shared
# tracer, checker, or counter state). Then the intra-simulation parallel
# tick: a detailed-CPU quick workload sharded across 4 sim workers
# (-sanitize is omitted there — the sanitizer forces the serial path,
# so a sanitized run would not exercise the tick gate at all).
race-smoke:
	$(GO) run -race ./cmd/cmpsim -workload eqntott -quick -sanitize -jobs 4
	$(GO) run -race ./cmd/cmpsim -workload mp3d -quick -model mxs -sim-jobs 4

# bench runs the figure-benchmark matrix (internal/benchfig) through
# cmd/benchjson and writes BENCH_figures.json: ns/op and simulated
# cycles/sec per figure, with and without the quiescence-skipping
# scheduler, plus the skip speedup. CI uploads the file as an artifact
# so every PR leaves a perf trajectory to regress against.
bench:
	$(GO) run ./cmd/benchjson

# bench-gate is the CI perf gate: re-measure the figure matrix
# (median of 3 samples per cell) and diff against the committed
# baseline. Sim cycle counts must match exactly (determinism anchor —
# including at -sim-jobs 4 on the detailed-CPU rows); Mipsy MemBound
# rows must keep a >= 2x skip speedup; on hosts with 4 or more cores
# the MXS MemBound row must keep a >= 1.5x parallel-tick speedup unless
# the baseline marks it par_regression (on fewer cores there is no
# floor: the serial loop skips per CPU itself, which is all sharding
# won there); every other row's dimensionless speedup must stay within
# ±30% of its baseline value.
bench-gate:
	$(GO) run ./cmd/benchjson -gate BENCH_figures.json -samples 3

# experiments-output regenerates the full-campaign capture that
# EXPERIMENTS.md describes. The file is a generated artifact —
# .gitignore'd, like simlint.sarif — so reproduce it locally rather
# than expecting it in the tree (~30 s on one core; add `-sim-jobs 4`
# manually for a sharded run, output is identical).
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt

# bench-trace proves the zero-allocation acceptance bar:
# BenchmarkTracerDisabled, BenchmarkProfDisabled (instrumentation
# attached but off),
# the three BenchmarkMXSTick cases (the detailed CPU's per-cycle path
# against a one-cycle memory, four cores of quick MP3D ticked in
# rotation over the real shared-memory system, and stalled-window, the
# same on the memory-bound design point with every core ticked only
# when its wake hint is due: ns per tick and ticks per instruction),
# the two BenchmarkMipsyTick cases (the simple CPU against a one-cycle
# memory, ns per instruction), the two BenchmarkRunWindow cases (the
# cycle loop alone over stub cores, ns per executed cycle) and
# BenchmarkCacheInvalidateMiss (a private cache's side of a coherence
# ping-pong over 64 Ki lines: the invalidation-marker set) and
# BenchmarkImageAccess (a guest Read32/Write32 on pages already present)
# must report 0 allocs/op (CI checks each of them by name).
# BenchmarkImageNew, the cost of one workload-sized guest image (its
# page table), runs beside them for its ns/op.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTracer|BenchmarkProf|BenchmarkMXSTick|BenchmarkMipsyTick|BenchmarkRunWindow|BenchmarkCacheInvalidateMiss|BenchmarkImage' -benchmem . ./internal/cpu/mxs ./internal/cpu/mipsy ./internal/core ./internal/cache ./internal/mem

# size reports what the code base weighs: Go lines (non-test, and test
# plus testdata) per top-level directory of the root module, benchmark/
# excluded, and the number of flags each command's -h lists.
size:
	@printf '%-12s %8s %8s\n' dir go test; \
	tgo=0; ttest=0; \
	for d in . $$(find . -mindepth 1 -maxdepth 1 -type d ! -name '.*' ! -name benchmark | sort); do \
	  depth=; [ $$d = . ] && depth='-maxdepth 1'; \
	  go=$$(find $$d $$depth -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l); \
	  test=$$(find $$d $$depth -name '*.go' \( -name '*_test.go' -o -path '*/testdata/*' \) -exec cat {} + | wc -l); \
	  [ $$go$$test = 00 ] && continue; \
	  printf '%-12s %8d %8d\n' $${d#./} $$go $$test; \
	  tgo=$$((tgo + go)); ttest=$$((ttest + test)); \
	done; \
	printf '%-12s %8d %8d\n\n' total $$tgo $$ttest
	@printf '%-12s %8s\n' command flags; \
	bin=$$(mktemp -d); total=0; \
	for c in $$(ls cmd); do \
	  $(GO) build -o $$bin/$$c ./cmd/$$c || exit 1; \
	  n=$$($$bin/$$c -h 2>&1 | grep -c '^  -'); \
	  printf '%-12s %8d\n' $$c $$n; total=$$((total + n)); \
	done; \
	rm -rf $$bin; \
	printf '%-12s %8d\n' total $$total

clean:
	$(GO) clean ./...
