GO ?= go

.PHONY: all build check vet lint test race bench-module smoke race-smoke bench bench-trace experiments-output size clean

all: build

build:
	$(GO) build ./...

# check is the verification gate: static analysis (vet + the simlint
# invariant suite), the full test suite under the race detector (the
# trace ring is the shared-state hot spot), the nested benchmark
# module's vet and tests, a sanitized smoke run of every architecture,
# and race-checked parallel smokes of the runner pool.
check: vet lint race bench-module smoke race-smoke

vet:
	$(GO) vet ./...

# lint runs the project's own go/types-based analyzers (determinism,
# statreg) over the whole module, loaded through one `go list -export`.
# See cmd/simlint and the "Correctness tooling" section of the README.
lint:
	$(GO) run ./cmd/simlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests benchmark/, a nested module that imports
# the root's internal packages: `go test ./...` does not reach it, so a
# root change could otherwise break `bash benchmark/run.sh` unseen.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# smoke runs one reduced-size workload per traffic pattern on all three
# architectures with the runtime sanitizer on: every memory transaction
# is checked for MESI legality, directory/L1 agreement, inclusion,
# cycle monotonicity and MSHR drain, and any violation panics with an
# event trail. MP3D also runs under the out-of-order CPU on shared-mem,
# the only model that stores to a line while its own read miss is
# outstanding (a merged store must still upgrade). The last step saves
# a profile with cmpsim -prof-out and renders it with cmd/simprof, the
# profile viewer.
smoke:
	$(GO) run ./cmd/cmpsim -workload eqntott -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload fft -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload mp3d -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload mp3d -quick -model mxs -arch shared-mem -sanitize
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/cmpsim -workload mp3d -quick -arch shared-mem -prof-out $$tmp/p.json && \
	$(GO) run ./cmd/simprof -top 5 $$tmp/p.json; status=$$?; rm -rf $$tmp; exit $$status

# race-smoke drives the internal/runner worker pool under the race
# detector on real simulations, not just the unit tests: all three
# architectures of a quick workload run concurrently on 4 workers,
# proving the pool's job isolation (no shared tracer, checker, or
# counter state). The first run is sanitized under the simple CPU, the
# second runs the detailed CPU (MXS).
race-smoke:
	$(GO) run -race ./cmd/cmpsim -workload eqntott -quick -sanitize -jobs 4
	$(GO) run -race ./cmd/cmpsim -workload mp3d -quick -model mxs -jobs 4

# bench runs every row of the figure table (internal/benchfig) at the
# paper's size, the cells cmd/experiments prints, through cmd/benchjson
# and writes BENCH_figures.json: ns/op and
# simulated cycles/sec per row, with and without the quiescence-skipping
# scheduler, plus the skip speedup. CI uploads the file as an artifact
# so every PR leaves a perf trajectory; no host time is gated. What is
# gated is exact: TestLedger (make test, make check) pins each row's
# cycle and work counts and holds the memory-bound Mipsy rows to a
# skipped-cycle floor.
bench:
	$(GO) run ./cmd/benchjson

# experiments-output regenerates the full-campaign capture that
# EXPERIMENTS.md describes. The file is a generated artifact —
# .gitignore'd — so reproduce it locally rather
# than expecting it in the tree (~13 s on a 2-core host).
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
# the four BenchmarkMipsyTick cases (the simple CPU against a one-cycle
# memory, ns and ticks per instruction; load-every-third-shared runs
# through its loads and line ends below a shared bound, alu-lines-icache
# through line ends that hit its I-cache with the shared bound at the
# next cycle), the three
# BenchmarkRunWindow cases (the
# cycle loop alone over stub cores, ns per simulated cycle: all-awake,
# one-of-four, the lone-CPU stretch, and staggered-jump, the jump over
# cores that declare exact hints) and
# BenchmarkCacheInvalidateMiss (a private cache's side of a coherence
# ping-pong over 64 Ki lines: the invalidation-marker set),
# BenchmarkImageAccess (a guest Read32/Write32 on pages already present)
# and the load-hit and store rows of BenchmarkAccess on each
# architecture (shared-l1, shared-l2, shared-mem: one memory-system
# reference, ns per reference) must report 0 allocs/op (CI checks each
# of them by name). BenchmarkAccess's load-miss, ifetch and ifetch-hit
# rows run beside them for their ns/op.
# BenchmarkImageNew and BenchmarkCacheNew, the cost of one
# workload-sized guest image and of the 2 MiB L2 (each its page table),
# BenchmarkAssemble, building, assembling and loading the full-size
# Ocean program (B/op: what its uninitialized grids cost), and
# BenchmarkRunWindow/sampler, the loop with an interval sampler
# attached (each sample allocates), run beside them for their ns/op.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTracer|BenchmarkProf|BenchmarkMXSTick|BenchmarkMipsyTick|BenchmarkRunWindow|BenchmarkCache|BenchmarkImage|BenchmarkAccess|BenchmarkAssemble' -benchmem . ./internal/cpu/mxs ./internal/cpu/mipsy ./internal/core ./internal/cache ./internal/mem ./internal/memsys ./internal/asm

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
