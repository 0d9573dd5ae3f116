package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/runner"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// setupReps is how many times each cell is set up per pass: once for
// the run and the rest discarded. Set-up is a few milliseconds of
// zeroing a 32 MiB image, so it needs more samples than the passes
// alone give to report a steady value.
const setupReps = 5

// bench is one workload instantiated for a seed, with everything its
// passes have produced so far.
type bench struct {
	spec    *spec
	cells   []cell
	workers int    // pool worker count (pool workloads)
	tmp     string // scratch directory for result caches

	passes     []*pass
	tracedPass *pass
	failed     int
	attempt    int
	errs       []string
	mismatch   bool // some cell reported different results in two runs
}

// pass is one measured pass over a workload's cells.
type pass struct {
	start, end time.Time
	samples    []*sample   // by cell index
	setups     [][]float64 // by cell index: every set-up time sampled
	allocMB    float64
	cached     int // results served from the result cache (warm batches)
}

func newBench(s *spec, seed int64, tmp string) (*bench, error) {
	cells, err := s.cells(seed)
	if err != nil {
		return nil, err
	}
	return &bench{spec: s, cells: cells, workers: min(2, runtime.NumCPU()), tmp: tmp}, nil
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	msg := fmt.Sprintf(format, args...)
	b.errs = append(b.errs, msg)
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", b.spec.name, msg)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// warmUp runs the fastest application at quick scale on each
// architecture under every model and configuration the workload uses,
// and discards the results: the first simulation of a process pays for
// page-faulting the heap and the text.
func (b *bench) warmUp() error {
	for _, set := range b.spec.sets {
		cfg := configs[set.config]()
		for _, a := range core.Arches() {
			w, err := workload.NewQuick("fft")
			if err != nil {
				return err
			}
			if _, err := workload.Run(w, a, set.model, &cfg); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// runPass executes every cell of the workload once: serially on this
// goroutine, or for a pool workload as one batch of runner jobs. cache
// is the result cache a pool batch uses (nil for none).
func (b *bench) runPass(cells []cell, mode runMode, pooled bool, cache *runner.Cache, telem *telemetry.RunnerMetrics) *pass {
	p := &pass{samples: make([]*sample, len(cells)), setups: make([][]float64, len(cells))}
	if pooled {
		jobs := make([]runner.Job, len(cells))
		for i := range cells {
			c := &cells[i]
			p.samples[i] = &sample{}
			jobs[i] = runner.Job{
				Workload:    c.begin(mode, p.samples[i]),
				WorkloadKey: c.App + "/" + c.Params,
				Arch:        c.Arch, Model: c.Model, Cfg: c.cfg, Tag: c.tag(),
			}
		}
		pool := runner.Pool{Workers: b.workers, Cache: cache, Telem: telem}
		runtime.GC()
		a0 := totalAlloc()
		p.start = time.Now()
		results := pool.Run(jobs)
		p.end = time.Now()
		p.allocMB = float64(totalAlloc()-a0) / (1 << 20)
		for i, r := range results {
			p.samples[i].finish(r.Res, r.Err)
			if r.Cached {
				p.cached++
			}
		}
	} else {
		p.start = time.Now()
		for i := range cells {
			c := &cells[i]
			runtime.GC() // untimed: the previous cell's image is garbage now
			a0 := totalAlloc()
			p.samples[i] = c.run(c.cfg, mode)
			p.allocMB += float64(totalAlloc()-a0) / (1 << 20)
		}
		p.end = time.Now()
	}
	for i, s := range p.samples {
		b.attempt++
		if s.err != nil {
			b.fail("%s: %v", cells[i].String(), s.err)
		} else if !s.start.IsZero() {
			p.setups[i] = append(p.setups[i], s.setupS())
		}
	}
	return p
}

// extraSetups samples each cell's set-up setupReps-1 more times.
func (b *bench) extraSetups(p *pass) {
	for i := range b.cells {
		for r := 1; r < setupReps; r++ {
			t, err := b.cells[i].setupOnly()
			if err != nil {
				b.fail("%s: set-up: %v", b.cells[i].String(), err)
				break
			}
			p.setups[i] = append(p.setups[i], t)
		}
	}
}

// cacheDir makes an empty result-cache directory under the scratch
// directory.
func (b *bench) cacheDir() (*runner.Cache, func(), error) {
	if err := os.MkdirAll(b.tmp, 0o777); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(b.tmp, "cache-*")
	if err != nil {
		return nil, nil, err
	}
	c, err := runner.OpenCache(dir)
	return c, func() { os.RemoveAll(dir) }, err
}

// measuredPass runs one untraced pass and records it.
func (b *bench) measuredPass() error {
	var cache *runner.Cache
	if b.spec.pool {
		c, cleanup, err := b.cacheDir()
		if err != nil {
			return err
		}
		defer cleanup()
		cache = c
	}
	p := b.runPass(b.cells, runMode{}, b.spec.pool, cache, nil)
	b.extraSetups(p)
	if len(b.passes) > 0 {
		for i, s := range p.samples {
			b.sameResult(&b.cells[i], "result differs between passes", s, b.passes[0].samples[i])
		}
	}
	b.passes = append(b.passes, p)
	return nil
}

// ---- pass aggregates ----

// wallS is the pass's wall time: for a serial pass the sum of its
// cells (set-up + run + validate; the GC between cells is excluded),
// for a pool batch the batch's elapsed time.
func (b *bench) wallS(p *pass) float64 {
	if b.spec.pool {
		return p.end.Sub(p.start).Seconds()
	}
	var t float64
	for _, s := range p.samples {
		if s.err == nil {
			t += s.wallS()
		}
	}
	return t
}

func (p *pass) runS() (t float64) {
	for _, s := range p.samples {
		if s.err == nil {
			t += s.runS()
		}
	}
	return t
}

func (p *pass) cycles() (n uint64) {
	for _, s := range p.samples {
		if s.err == nil {
			n += s.res.Cycles
		}
	}
	return n
}

func (p *pass) instructions() (n uint64) {
	for _, s := range p.samples {
		if s.err == nil {
			n += s.res.Instructions()
		}
	}
	return n
}

// simSeconds is the denominator of the simulation rates: the time
// spent inside Machine.Run, or for a pool batch its wall time (the
// closed-loop throughput of the workers together).
func (b *bench) simSeconds(p *pass) float64 {
	if b.spec.pool {
		return b.wallS(p)
	}
	return p.runS()
}

// summary is one end-to-end metric: the reported value, and the same
// quantity taken from each measured pass alone, which is where -compare
// gets a spread from when it has one file a side.
type summary struct {
	Value  float64   `json:"value"`
	Passes []float64 `json:"passes"`
}

// endToEnd computes the end-to-end metrics from the measured passes.
//
// Every time is taken per cell as the fastest of the cell's samples and
// then summed over the cells. This sandbox shares its caches with other
// tenants: the same deterministic cell runs up to 1.5x slower for
// seconds at a time while an ALU-only loop beside it does not move, so
// the interference is one-sided and lasts longer than a cell. Over
// three passes the median of the pass totals spread 8% between
// identical runs, the sum of per-cell medians as much, and the sum of
// per-cell minima 1.4%; for set-up, 15 samples a cell, the sum of
// medians ranged over 70% of its median and the sum of minima over 20%
// (README.md has the runs). For a pool batch the fastest samples are
// composed the way the pool composes them (poolWall).
func (b *bench) endToEnd() map[string]summary {
	var wall, cyc, inst, alloc, setup []float64
	for _, p := range b.passes {
		wall = append(wall, b.wallS(p))
		sim := b.simSeconds(p)
		cyc = append(cyc, float64(p.cycles())/sim/1e6)
		inst = append(inst, float64(p.instructions())/sim/1e6)
		alloc = append(alloc, p.allocMB)
		var st float64
		for i := range b.cells {
			if len(p.setups[i]) > 0 {
				st += slices.Min(p.setups[i])
			}
		}
		setup = append(setup, st)
	}
	var bestWall, bestRun, bestSetup float64
	for i := range b.cells {
		w, r, st := math.Inf(1), math.Inf(1), math.Inf(1)
		for _, p := range b.passes {
			if s := p.samples[i]; s.err == nil {
				w, r = min(w, s.wallS()), min(r, s.runS())
			}
			for _, t := range p.setups[i] {
				st = min(st, t)
			}
		}
		if !math.IsInf(w, 1) {
			bestWall += w
			bestRun += r
			bestSetup += st
		}
	}
	if b.spec.pool {
		bestWall = b.poolWall()
		bestRun = bestWall
	}
	first := b.passes[0]
	return map[string]summary{
		"wall_s":            {bestWall, wall},
		"sim_mcycles_per_s": {float64(first.cycles()) / bestRun / 1e6, cyc},
		"sim_minst_per_s":   {float64(first.instructions()) / bestRun / 1e6, inst},
		"setup_s":           {bestSetup, setup},
		"alloc_mb":          {median(alloc), alloc},
	}
}

// makespan replays runner.Pool's dispatch over the given job times:
// jobs are taken in order, each by the worker that falls idle first.
func makespan(jobs []float64, workers int) float64 {
	free := make([]float64, workers)
	for _, t := range jobs {
		i := 0
		for w := range free {
			if free[w] < free[i] {
				i = w
			}
		}
		free[i] += t
	}
	return slices.Max(free)
}

// poolWall is a pool workload's batch time with every job at its
// fastest sample: the makespan of the per-job minima on the pool's
// workers, plus what the pool itself added (cache probes and writes,
// dispatch, merging), taken as the smallest gap between a batch's
// measured time and the makespan of that batch's own job times. With
// one worker it is exactly the serial workloads' sum of minima. The
// fastest whole batch is not used: both vCPUs are busy for seconds, so
// no batch of three escapes interference (16% spread between runs).
func (b *bench) poolWall() float64 {
	best := make([]float64, len(b.cells))
	for i := range best {
		best[i] = math.Inf(1)
	}
	overhead := math.Inf(1)
	for _, p := range b.passes {
		own := make([]float64, 0, len(b.cells))
		for i, s := range p.samples {
			if s.err == nil {
				best[i] = min(best[i], s.wallS())
				own = append(own, s.wallS())
			}
		}
		overhead = min(overhead, p.end.Sub(p.start).Seconds()-makespan(own, b.workers))
	}
	best = slices.DeleteFunc(best, func(t float64) bool { return math.IsInf(t, 1) })
	return makespan(best, b.workers) + max(overhead, 0)
}

// ---- the traced pass ----

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sameResult records a failed operation, and clears sim.digest_match,
// when two runs of one cell report different results.
func (b *bench) sameResult(c *cell, what string, got, want *sample) {
	if got.err == nil && want.err == nil && got.digest != want.digest {
		b.fail("%s: %s", c.String(), what)
		b.mismatch = true
	}
}

func flag01(bad bool) float64 {
	if bad {
		return 0
	}
	return 1
}

// traced runs the traced pass and everything derived from it, and
// returns the per-layer metrics. Spans go to sp.
func (b *bench) traced(sp *spanLog, parent int) (map[string]float64, error) {
	m := map[string]float64{}

	// A. Every cell with the counting probes in place, serially even
	// for a pool workload: stage C measures the pool, and run times
	// taken beside another worker would not compare with stage B's.
	pa := b.runPass(b.cells, runMode{count: true}, false, nil, nil)
	b.tracedPass = pa
	passSpan := sp.add(parent, "pass:traced", pa.start, pa.end)
	for i, s := range pa.samples {
		sp.addCell(passSpan, b.cells[i].tag(), s)
		for _, p := range b.passes {
			b.sameResult(&b.cells[i], "counting probes changed the result", s, p.samples[i])
		}
	}
	b.countMetrics(m, pa)

	// B. The probe cells, each alone.
	var probes []int
	sched := map[int]schedCost{}
	for i := range b.cells {
		if !b.cells[i].Probe || pa.samples[i].err != nil {
			continue
		}
		probes = append(probes, i)
		if n := b.cells[i].cfg.NumCPUs; sched[n] == (schedCost{}) {
			c, err := calibrateSched(n)
			if err != nil {
				return nil, err
			}
			sched[n] = c
			m["core.loop_ns_per_cycle"], m["core.jump_ns"] = c.loopNs, c.jumpNs
		}
	}
	sums := probeSums{byArch: map[core.Arch]*timing{}}
	serial := make([]*sample, len(b.cells)) // untraced probe runs, for stage C
	for _, i := range probes {
		c := &b.cells[i]
		id := sp.begin(parent, "probe:"+c.tag())
		serial[i] = b.probeCell(c, pa.samples[i], sched[c.cfg.NumCPUs], &sums, sp, id)
		sp.end(id)
	}
	sums.metrics(m)

	// C. The probe cells as a runner batch: cold, then warm.
	if err := b.runnerStage(m, probes, serial, sp, parent); err != nil {
		return nil, err
	}
	m["sim.digest_match"] = flag01(b.mismatch)
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// countMetrics fills in what the counting probes and the run results of
// the traced pass give directly: exact counts, and the split of set-up.
func (b *bench) countMetrics(m map[string]float64, pa *pass) {
	var cyc, skipped, inst, ticks, nextWork float64
	var calls, accesses, refused, done float64
	var level [memsys.NumLevels]float64
	var l1dRepl, l1dInv, l2Repl, l2Inv, c2c float64
	var newMachine, configure, validate float64
	for _, s := range pa.samples {
		if s.err != nil {
			continue
		}
		cyc += float64(s.res.Cycles)
		skipped += float64(s.skipped)
		inst += float64(s.res.Instructions())
		ticks += float64(s.cores.ticks)
		nextWork += float64(s.cores.nextWork)
		calls += float64(s.sys.calls())
		accesses += float64(s.sys.n[kRead] + s.sys.n[kWrite])
		refused += float64(s.sys.refused)
		for l, n := range s.sys.level {
			level[l] += float64(n)
			done += float64(n)
		}
		rep := s.res.MemReport
		l1dRepl += float64(rep.L1D.ReplMisses())
		l1dInv += float64(rep.L1D.InvMisses)
		l2Repl += float64(rep.L2.ReplMisses())
		l2Inv += float64(rep.L2.InvMisses)
		if rep.Snoop != nil {
			c2c += float64(rep.Snoop.CacheToCache)
		}
		newMachine += s.cfgIn.Sub(s.start).Seconds()
		configure += s.cfgOut.Sub(s.cfgIn).Seconds()
		validate += s.validateS()
	}
	m["core.run_s"] = pa.runS()
	m["core.cycles"] = cyc
	m["core.cycles_skipped"] = skipped
	m["core.skip_frac"] = frac(skipped, cyc)
	m["core.ticks"] = ticks
	m["core.nextwork_calls"] = nextWork
	m["cpu.ticks_per_inst"] = frac(ticks, inst)
	m["memsys.calls"] = calls
	m["memsys.refused_frac"] = frac(refused, accesses)
	m["memsys.l1_frac"] = frac(level[memsys.LvlL1], done)
	m["memsys.l2_frac"] = frac(level[memsys.LvlL2], done)
	m["memsys.mem_frac"] = frac(level[memsys.LvlMem], done)
	m["memsys.c2c_frac"] = frac(level[memsys.LvlC2C], done)
	m["sim.instructions"] = inst
	m["sim.ipc"] = frac(inst, cyc)
	m["sim.l1d_repl_misses"] = l1dRepl
	m["sim.l1d_inv_misses"] = l1dInv
	m["sim.l2_repl_misses"] = l2Repl
	m["sim.l2_inv_misses"] = l2Inv
	m["sim.c2c_transfers"] = c2c
	m["core.new_machine_ms"] = newMachine * 1e3
	m["workload.configure_ms"] = configure * 1e3
	m["workload.validate_ms"] = validate * 1e3
	m["mem.image_new_ms"] = timeImage() * 1e3 * float64(len(b.cells))

	checked, matched, buildUs := b.paperShape(pa)
	m["sim.paper_shape_checked"] = float64(checked)
	m["sim.paper_shape_matched"] = float64(matched)
	m["stats.build_figure_us"] = buildUs
}

// probeSums accumulates the probe cells' isolated measurements.
type probeSums struct {
	runU, runA              float64 // run seconds untraced, and with the counting probes
	sched, replay           float64
	calls, ticks, inst      float64
	byArch                  map[core.Arch]*timing // replay by architecture
	inexact                 bool
	cacheAcc, mshr          timing
	cacheHits               float64
	snoop, dir, ic, decode  timing
	noskip, par, perfect    float64 // re-run seconds
	rerunBase, perfectTicks float64
}

// probeCell measures one probe cell alone: an untraced run (returned),
// a logged run, the replay of its log, the layers under memsys on the
// logged references, and for the shared-memory MP3D cell the re-runs
// with one thing changed. a is the cell's sample from the traced pass.
func (b *bench) probeCell(c *cell, a *sample, sc schedCost, sums *probeSums, sp *spanLog, span int) *sample {
	run := func(name string, cfg memsys.Config, mode runMode, same bool) *sample {
		runtime.GC()
		s := c.run(cfg, mode)
		sp.addCell(span, name, s)
		b.attempt++
		if s.err != nil {
			b.fail("%s: %s: %v", c.String(), name, s.err)
		} else if same {
			b.sameResult(c, name+" run differs from the traced pass", s, a)
		}
		return s
	}
	u := run("untraced", c.cfg, runMode{}, true)
	l := run("logged", c.cfg, runMode{count: true, log: true}, true)
	if u.err != nil || l.err != nil {
		return u
	}

	// memsys by replay: fastest of three.
	log := l.sys.log
	rep := math.Inf(1)
	for r := 0; r < 3; r++ {
		r0 := time.Now()
		t, report, err := replay(c.Arch, l.cfg, l.sys.shared, log)
		sp.add(span, "replay", r0, time.Now())
		b.attempt++
		if err != nil {
			b.fail("%s: replay: %v", c.String(), err)
		} else if !reflect.DeepEqual(report, l.res.MemReport) {
			b.fail("%s: replayed memory-system report differs from the run's", c.String())
			sums.inexact = true
		}
		rep = min(rep, t)
	}

	// core by calibration, cpu as the residual.
	executed := float64(a.res.Cycles - a.skipped)
	jumps := float64(a.cores.nextWork) / float64(c.cfg.NumCPUs)
	sch := (sc.loopNs*executed + sc.jumpNs*jumps) / 1e9
	if u.runS()-sch-rep < 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s: negative cpu residual: run %.4fs, sched %.4fs, memsys %.4fs\n",
			b.spec.name, c.tag(), u.runS(), sch, rep)
	}
	sums.runU += u.runS()
	sums.runA += a.runS()
	sums.sched += sch
	sums.replay += rep
	sums.calls += float64(len(log))
	sums.ticks += float64(a.cores.ticks)
	sums.inst += float64(a.res.Instructions())
	if sums.byArch[c.Arch] == nil {
		sums.byArch[c.Arch] = &timing{}
	}
	sums.byArch[c.Arch].add(timing{rep, uint64(len(log))})

	// The layers under memsys, on the logged data references.
	data := dataCalls(log)
	acc, mshr, hits := timeCache(l.cfg, data)
	sums.cacheAcc.add(acc)
	sums.mshr.add(mshr)
	sums.cacheHits += float64(hits)
	snoop, dir := timeCoherence(l.cfg, data)
	sums.snoop.add(snoop)
	sums.dir.add(dir)
	sums.ic.add(timeInterconnect(l.cfg, data))
	dec, err := timeDecode(l.mach)
	if err != nil {
		b.fail("%s: %v", c.String(), err)
	}
	sums.decode.add(dec)
	l.mach, l.sys.log = nil, nil

	// Re-runs with one thing changed, on the MP3D cell of the paper's
	// baseline architecture.
	if c.App != "mp3d" || c.Arch != core.SharedMem {
		return u
	}
	noSkip, sharded := c.cfg, c.cfg
	noSkip.NoSkip = true
	sharded.SimJobs = 2
	n := run("noskip", noSkip, runMode{}, true)
	p := run("simjobs2", sharded, runMode{}, true)
	pm := run("perfect-mem", c.cfg, runMode{count: true, perfect: true}, false)
	if n.err == nil && p.err == nil && pm.err == nil {
		sums.rerunBase += u.runS()
		sums.noskip += n.runS()
		sums.par += p.runS()
		sums.perfect += pm.runS()
		sums.perfectTicks += float64(pm.cores.ticks)
	}
	return u
}

func (s *probeSums) metrics(m map[string]float64) {
	tick := s.runU - s.sched - s.replay
	m["core.sched_s"] = s.sched
	m["core.sched_frac"] = frac(s.sched, s.runU)
	m["memsys.replay_s"] = s.replay
	m["memsys.frac"] = frac(s.replay, s.runU)
	m["memsys.ns_per_call"] = frac(s.replay*1e9, s.calls)
	for _, a := range core.Arches() {
		var t timing
		if s.byArch[a] != nil {
			t = *s.byArch[a]
		}
		m["memsys."+string(a)+".ns_per_call"] = t.nsPerOp()
	}
	m["memsys.replay_exact"] = flag01(s.inexact)
	m["cpu.tick_s"] = tick
	m["cpu.tick_frac"] = frac(tick, s.runU)
	m["cpu.ns_per_tick"] = frac(tick*1e9, s.ticks)
	m["cpu.ns_per_inst"] = frac(tick*1e9, s.inst)
	m["cpu.perfect_mem_ns_per_tick"] = frac(s.perfect*1e9, s.perfectTicks)
	m["core.noskip_ratio"] = frac(s.noskip, s.rerunBase)
	m["core.simjobs2_ratio"] = frac(s.rerunBase, s.par)
	m["cache.access_ns"] = s.cacheAcc.nsPerOp()
	m["cache.hit_frac"] = frac(s.cacheHits, float64(s.cacheAcc.ops))
	m["cache.mshr_ns"] = s.mshr.nsPerOp()
	m["coherence.snoop_ns"] = s.snoop.nsPerOp()
	m["coherence.dir_ns"] = s.dir.nsPerOp()
	m["interconnect.acquire_ns"] = s.ic.nsPerOp()
	m["isa.decode_ns"] = s.decode.nsPerOp()
	m["event.schedule_run_ns"] = timeEvents().nsPerOp()
	m["trace.overhead_frac"] = frac(s.runA, s.runU) - 1
}

// runnerStage measures the runner layer on the probe cells: a cold
// batch on the pool's workers with an empty result cache, the same
// batch again warm, and the cache's Put and Get called directly on the
// results. serial holds the same cells' untraced serial runs.
func (b *bench) runnerStage(m map[string]float64, probes []int, serial []*sample, sp *spanLog, parent int) error {
	var cells []cell
	for _, i := range probes {
		cells = append(cells, b.cells[i])
	}
	cache, cleanup, err := b.cacheDir()
	if err != nil {
		return err
	}
	defer cleanup()
	telem := telemetry.New().Runner
	cold := b.runPass(cells, runMode{}, true, cache, telem)
	batch := sp.add(parent, "batch:cold", cold.start, cold.end)
	for i, s := range cold.samples {
		sp.addCell(batch, "job:"+cells[i].tag(), s)
	}
	coldWall := cold.end.Sub(cold.start).Seconds()
	var jobS []float64
	var jobSum float64
	for _, j := range telem.Jobs() {
		jobS = append(jobS, j.Seconds)
		jobSum += j.Seconds
	}

	warm := b.runPass(cells, runMode{}, true, cache, telem)
	sp.add(parent, "batch:warm", warm.start, warm.end)

	var put, get []float64
	var bytes, serialS float64
	for i, s := range cold.samples {
		if s.err != nil {
			continue
		}
		c := &cells[i]
		if u := serial[probes[i]]; u != nil && u.err == nil {
			serialS += u.wallS()
		}
		b.sameResult(c, "cached result differs from the simulated one", warm.samples[i], s)
		key := "bench-" + c.tag()
		t0 := time.Now()
		if err := cache.Put(key, s.res); err != nil {
			return err
		}
		t1 := time.Now()
		res, ok, err := cache.Get(key)
		t2 := time.Now()
		b.attempt++
		if err != nil || !ok || digest(res) != s.digest {
			b.fail("%s: result cache round trip: ok=%v err=%v", c.String(), ok, err)
			b.mismatch = true
		}
		sp.add(batch, "cache.put", t0, t1)
		sp.add(batch, "cache.get", t1, t2)
		put = append(put, t1.Sub(t0).Seconds())
		get = append(get, t2.Sub(t1).Seconds())
		if fi, err := os.Stat(filepath.Join(cache.Dir(), key+".json")); err == nil {
			bytes += float64(fi.Size())
		}
	}
	m["runner.batch_cold_s"] = coldWall
	m["runner.batch_warm_s"] = warm.end.Sub(warm.start).Seconds()
	m["runner.job_s_p50"] = median(jobS)
	m["runner.job_s_max"] = 0
	if len(jobS) > 0 {
		m["runner.job_s_max"] = slices.Max(jobS)
	}
	m["runner.parallel_eff"] = frac(jobSum, float64(b.workers)*coldWall)
	m["runner.speedup_vs_serial"] = frac(serialS, coldWall)
	m["runner.cache_put_ms"] = median(put) * 1e3
	m["runner.cache_get_ms"] = median(get) * 1e3
	m["runner.cache_hit_frac"] = frac(float64(cold.cached+warm.cached), float64(2*len(cells)))
	m["runner.entry_kb"] = frac(bytes/1024, float64(len(put)))
	return nil
}
