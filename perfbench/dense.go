package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	eigen "repro"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// denseParams describes one closed-loop dense workload.
type denseParams struct {
	N       int
	Vectors bool // Eig (all pairs) or EigValues
	Workers int
	Setups  int // times the set-up is repeated for setup_s (median)
}

func (p denseParams) options() *eigen.Options {
	// D&C, default NB and ColBlock; tuning off so that a stray tune profile
	// in the user's cache cannot move the numbers.
	return &eigen.Options{Workers: p.Workers, DisableTuning: true}
}

func (p denseParams) call() string {
	if p.Vectors {
		return "Solver.Eig"
	}
	return "Solver.EigValues"
}

// solveOnce runs the workload's public entry point once; vectors are copied
// into dst.
func (p denseParams) solveOnce(s *eigen.Solver, a *eigen.Matrix, dst *matrix.Dense) (output, error) {
	if p.Vectors {
		res, err := s.Eig(a)
		if err != nil {
			return output{}, err
		}
		return fromResult(res.Values, res.Vectors, dst), nil
	}
	vals, err := s.EigValues(a)
	return output{values: vals}, err
}

// denseRun is the shared state of one dense workload run: the input, the
// solver kept from the last set-up, and the verified reference output.
type denseRun struct {
	p      denseParams
	cfg    config
	ref    *matrix.Dense
	a      *eigen.Matrix
	s      *eigen.Solver
	vecs   *matrix.Dense // reused copy of each call's eigenvectors
	want   [32]byte
	qual   quality
	rep    *report
	setups []float64
}

// setUp builds the solver and runs the untimed warm-up solve p.Setups
// times, keeping the last solver; setup_s is the median. The first warm-up
// output is checked in full; every later output must equal it bitwise.
func (d *denseRun) setUp() {
	for i := 0; i < d.p.Setups; i++ {
		if d.s != nil {
			d.s.Close()
		}
		t0 := time.Now()
		d.s = eigen.NewSolver(d.p.options())
		out, err := d.p.solveOnce(d.s, d.a, d.vecs)
		d.vecs = out.vecs
		d.setups = append(d.setups, time.Since(t0).Seconds())
		d.rep.attempted++
		if err != nil {
			d.rep.fail("warm-up %s: %v", d.p.call(), err)
			return
		}
		d.cfg.corrupt(out)
		if i == 0 {
			d.qual = check(d.ref, out, 0, 0)
			if d.qual.err != nil {
				d.rep.fail("%s output: %v", d.p.call(), d.qual.err)
			}
			d.want = out.digest()
		} else {
			d.verifySame(out, "warm-up")
		}
	}
}

// verifySame requires out to equal the checked reference output bitwise.
func (d *denseRun) verifySame(out output, what string) {
	if out.digest() != d.want {
		d.rep.fail("%s %s output differs bitwise from the checked one", what, d.p.call())
	}
}

func runDense(cfg config, p denseParams) (*report, error) {
	ref := denseInput(cfg.seed, p.N)
	d := &denseRun{p: p, cfg: cfg, ref: ref, a: toEigen(ref), rep: newReport()}
	d.rep.note("workload: closed loop of %s, n=%d, Workers=%d, D&C, default NB/ColBlock, tuning off", p.call(), p.N, p.Workers)
	d.setUp()
	defer d.s.Close()
	if d.rep.failed > 0 {
		return d.rep, nil
	}
	if cfg.trace {
		d.traced()
		return d.rep, nil
	}

	// Closed loop: one call after another until the measuring window is
	// spent (at least one call). Each call starts from a collected heap, so
	// the collections its own allocations trigger fall at the same points
	// in every call and every run.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var lat []float64
	start := time.Now()
	for len(lat) == 0 || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		t0 := time.Now()
		out, err := d.p.solveOnce(d.s, d.a, d.vecs)
		lat = append(lat, time.Since(t0).Seconds()*1e3)
		d.rep.attempted++
		if err != nil {
			d.rep.fail("%s: %v", p.call(), err)
			continue
		}
		cfg.corrupt(out)
		d.verifySame(out, "timed")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.rep.set("latency_p50_ms", median(lat), "median wall of %d timed %s calls", len(lat), p.call())
	d.rep.set("setup_s", median(d.setups), "median of %d × (NewSolver + warm-up %s)", len(d.setups), p.call())
	d.rep.set("peak_rss_mb", rss, "VmHWM over the timed calls (reset after set-up)")
	return d.rep, nil
}

// traced produces the per-layer metrics: an untraced Solver call with
// allocation counts, then the same solve driven phase by phase through the
// core plan, untraced and then on a traced scheduler with a collector, and
// kernel probes at each phase's operand shapes.
func (d *denseRun) traced() {
	p, rep := d.p, d.rep
	rep.set("eigen.residual", d.qual.residual, "checked warm-up output")
	rep.set("eigen.ortho", d.qual.ortho, "checked warm-up output")

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := p.solveOnce(d.s, d.a, d.vecs)
	eigWall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rep.attempted++
	if err != nil {
		rep.fail("%s: %v", p.call(), err)
		return
	}
	d.cfg.corrupt(out)
	d.verifySame(out, "timed")
	rep.set("work.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs), "runtime.MemStats delta around one untraced %s", p.call())
	rep.set("work.alloc_mb_per_solve", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "runtime.MemStats delta around one untraced %s", p.call())

	co := core.Options{Method: core.MethodDC, Vectors: p.Vectors, Arena: work.NewArena()}
	var plain, tracedSched *sched.Scheduler
	if p.Workers > 1 {
		plain = sched.New(p.Workers)
		defer plain.Shutdown()
		tracedSched = sched.New(p.Workers, sched.WithTrace())
		defer tracedSched.Shutdown()
	}
	// The first plan-drive warms the arena, as the Solver's warm-up did.
	var plainWall time.Duration
	for range 2 {
		dr, err := drive(d.ref, co, plain, nil)
		rep.attempted++
		if err != nil {
			rep.fail("plan-drive: %v", err)
			return
		}
		d.verifySame(dr.out, "untraced plan-drive")
		plainWall = dr.wall
	}
	tc := trace.New()
	dr, err := drive(d.ref, co, tracedSched, tc)
	rep.attempted++
	if err != nil {
		rep.fail("traced plan-drive: %v", err)
		return
	}
	// Bitwise equality with the Solver's output proves the plan-drive ran
	// the Solver's configuration, so its split describes the measured program.
	d.verifySame(dr.out, "traced plan-drive")
	rep.set("eigen.overhead_s", (eigWall - plainWall).Seconds(), "%s wall %.4gs − untraced plan-drive wall %.4gs", p.call(), eigWall.Seconds(), plainWall.Seconds())
	rep.set("core.trace_overhead_frac", (dr.wall-plainWall).Seconds()/plainWall.Seconds(), "traced plan-drive wall %.4gs vs untraced %.4gs", dr.wall.Seconds(), plainWall.Seconds())
	var evs []sched.TraceEvent
	if tracedSched != nil {
		evs = tracedSched.Trace()
	}
	layerSplit(rep, []driveResult{dr}, evs, p.Workers, p.N)
}

// driveResult is one solve driven phase by phase through the core plan.
type driveResult struct {
	out    output
	wall   time.Duration            // NewSolveState through Result
	phase  map[string]time.Duration // wall per plan phase name
	flops  map[string]int64         // collector kernel flops counted during each phase
	eigtFl int64                    // eig_t sub-phase attributed flops
}

// drive runs the two-stage plan the way Solver does (same core options,
// scheduler width and arena reuse), timing each phase. On a scheduler each
// phase's job is labeled with the phase name so trace events attribute to
// it; labels do not change scheduling.
func drive(a *matrix.Dense, co core.Options, s *sched.Scheduler, tc *trace.Collector) (driveResult, error) {
	co.Sched, co.Collector = s, tc
	r := driveResult{phase: make(map[string]time.Duration), flops: make(map[string]int64)}
	ctx := context.Background()
	r.eigtFl = -eigtAttributed(tc)
	t0 := time.Now()
	st, plan, err := core.NewSolveState(ctx, a, co)
	if err != nil {
		return r, err
	}
	defer st.Close()
	if s != nil && tc != nil {
		st.JobFactory = func(ph core.Phase, ctx context.Context) *sched.Job { return s.NewJobNamed(ctx, ph.Name()) }
	}
	for _, ph := range plan {
		f0, p0 := tc.TotalFlops(), time.Now()
		if err := ph.Run(ctx, st); err != nil {
			return r, fmt.Errorf("phase %s: %w", ph.Name(), err)
		}
		r.phase[ph.Name()] += time.Since(p0)
		r.flops[ph.Name()] += tc.TotalFlops() - f0
	}
	res := st.Result()
	r.wall = time.Since(t0)
	r.eigtFl += eigtAttributed(tc)
	r.out = output{values: res.Values, vecs: res.Vectors}
	return r, nil
}

// eigtAttributed sums the flops the tridiagonal solvers attribute to the
// eig_t sub-phases so far.
func eigtAttributed(tc *trace.Collector) int64 {
	var f int64
	for _, sub := range []string{trace.PhaseEigTRecurse, trace.PhaseEigTMerge, trace.PhaseEigTBisect, trace.PhaseEigTStein} {
		f += tc.AttributedFlops(sub)
	}
	return f
}

// layerSplit sets the per-phase metrics from traced plan-drives (summed over
// all drives) and the scheduler events they produced, plus the kernel probes
// at the phases' operand shapes for an order-n problem.
func layerSplit(rep *report, drives []driveResult, evs []sched.TraceEvent, workers, n int) {
	var wall time.Duration
	sec := make(map[string]float64)
	fl := make(map[string]int64)
	var eigtFl int64
	for _, dr := range drives {
		wall += dr.wall
		for _, ph := range phases {
			sec[ph.layer] += dr.phase[ph.phase].Seconds()
			fl[ph.layer] += dr.flops[ph.phase]
		}
		eigtFl += dr.eigtFl
	}
	var named float64
	for _, ph := range phases {
		named += sec[ph.layer]
	}
	un := wall.Seconds() - named
	if named < 0.95*wall.Seconds() {
		// A plan phase the split does not name: the per-layer figures would
		// no longer describe the solve.
		rep.fail("the named phases cover %.1f%% of the traced wall, want at least 95%%", 100*named/wall.Seconds())
	}
	rep.set("core.unaccounted_s", un, "traced wall %.4gs − Σ named phases %.4gs (%.2f%% accounted) over %d solve(s)", wall.Seconds(), named, 100*named/wall.Seconds(), len(drives))
	rep.note("traced split: %d solve(s), wall %.4gs = band %.4g + bulge %.4g + tridiag %.4g + backtransform %.4g + unaccounted %.4g s",
		len(drives), wall.Seconds(), sec["band"], sec["bulge"], sec["tridiag"], sec["backtransform"], un)

	gf := func(flops int64, s float64) float64 {
		if s <= 0 {
			return 0
		}
		return float64(flops) / s / 1e9
	}
	for _, ph := range phases {
		if !ranPhase(drives, ph.phase) {
			continue // not in this workload's plan
		}
		rep.set(ph.layer+".s", sec[ph.layer], "wall of plan phase %s, traced run", ph.phase)
	}
	rep.set("band.gflops", gf(fl["band"], sec["band"]), "collector kernel flops %d during stage1 / band.s", fl["band"])
	rep.set("bulge.gflops", gf(fl["bulge"], sec["bulge"]), "collector kernel flops %d during stage2 / bulge.s", fl["bulge"])
	rep.set("tridiag.gflops", gf(eigtFl, sec["tridiag"]), "eig_t sub-phase attributed flops %d / tridiag.s (the collector's kernel counts omit eig_t)", eigtFl)
	if ranPhase(drives, "back_trans") {
		rep.set("backtransform.gflops", gf(fl["backtransform"], sec["backtransform"]), "collector kernel flops %d during back_trans / backtransform.s", fl["backtransform"])
	}

	if len(evs) > 0 {
		byPhase := make(map[string][]float64)
		busy := make(map[string]float64)
		for _, ev := range evs {
			d := (ev.End - ev.Start).Seconds()
			byPhase[ev.Job] = append(byPhase[ev.Job], d*1e6)
			busy[ev.Job] += d
		}
		for _, ph := range phases {
			tasks := byPhase[ph.phase]
			if len(tasks) == 0 {
				continue
			}
			rep.set("sched.tasks."+ph.layer, float64(len(tasks)), "scheduler trace events labeled %s", ph.phase)
			rep.set("sched.busy_s."+ph.layer, busy[ph.phase], "Σ task durations of %s", ph.phase)
			rep.set("sched.idle_s."+ph.layer, float64(workers)*sec[ph.layer]-busy[ph.phase], "%d workers × %.4gs phase wall − busy", workers, sec[ph.layer])
			rep.set("sched.task_us_p50."+ph.layer, median(tasks), "median task duration of %s", ph.phase)
		}
	}
	probes(rep, sec, fl, workers, n)
}

func ranPhase(drives []driveResult, phase string) bool {
	for _, dr := range drives {
		if _, ok := dr.phase[phase]; ok {
			return true
		}
	}
	return false
}
