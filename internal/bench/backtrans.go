package bench

import (
	"fmt"
	"time"

	"repro/internal/backtransform"
	"repro/internal/band"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tune"
	"repro/internal/work"
)

// BacktransPoint is one measured configuration of the fused-vs-legacy
// back-transformation comparison, in the machine-readable form that
// cmd/eigbench serializes to BENCH_backtrans.json.
type BacktransPoint struct {
	N          int     `json:"n"`
	NB         int     `json:"nb"`
	Workers    int     `json:"workers"`
	ColBlock   int     `json:"col_block"`
	LegacySecs float64 `json:"legacy_secs"`
	FusedSecs  float64 `json:"fused_secs"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"bitwise_identical"`
}

// backtransFixture is the per-size state of the comparison: one reduction,
// one chase, one Q₂ plan, and a dense stand-in for the eigenvector matrix.
type backtransFixture struct {
	f    *band.Factor
	plan *backtransform.Plan
	e    *matrix.Dense
}

func newBacktransFixture(n, nb int, ws *work.Arena) *backtransFixture {
	a := matFor(n)
	f := band.Reduce(a, nb, nil, ws, nil)
	res := bulge.Chase(f.Band, nil, 0, true, ws, nil)
	return &backtransFixture{
		f:    f,
		plan: backtransform.NewPlan(res, 0, ws),
		e:    matFor(n), // any dense n×n stands in for the eigenvector matrix
	}
}

// legacy runs the two-phase path (Q₂ sweep, barrier, Q₁ sweep) on a copy of
// E and returns the elapsed time and the result.
func (fx *backtransFixture) legacy(s *sched.Scheduler, colBlock int, dst *matrix.Dense) time.Duration {
	dst.CopyFrom(fx.e)
	var j1, j2 *sched.Job
	if s != nil {
		j1, j2 = s.NewJob(nil), s.NewJob(nil)
	}
	start := time.Now()
	fx.plan.Apply(dst, j1, colBlock, nil)
	fx.f.ApplyQ1(dst, j2, colBlock, nil)
	return time.Since(start)
}

// fused runs the single-pass path on a copy of E.
func (fx *backtransFixture) fused(s *sched.Scheduler, colBlock int, dst *matrix.Dense) time.Duration {
	dst.CopyFrom(fx.e)
	var job *sched.Job
	if s != nil {
		job = s.NewJob(nil)
	}
	start := time.Now()
	fx.plan.ApplyFused(fx.f, dst, job, colBlock, nil)
	return time.Since(start)
}

// BacktransCompare measures the back-transformation in isolation — legacy
// two-phase (Q₂ sweep, global barrier, Q₁ sweep) versus the fused single
// pass — at several sizes and worker counts. The reduction and chase are
// built once per size; only the E updates are timed, alternating the two
// paths and keeping each one's best of reps (the same drift mitigation as
// Figure 4). Both paths use the shared tune.ColBlock default, under which
// they are bitwise identical; the Identical column re-verifies that on every
// configuration.
func BacktransCompare(sizes []int, nb int, workerCounts []int, reps int) (*Table, []BacktransPoint) {
	if reps < 1 {
		reps = 1
	}
	t := &Table{
		Name:    fmt.Sprintf("Back-transformation — fused single pass vs two-phase (nb=%d, best of %d)", nb, reps),
		Headers: []string{"n", "workers", "colBlock", "legacy", "fused", "speedup", "identical"},
	}
	var points []BacktransPoint
	ws := work.NewArena()
	for _, n := range sizes {
		fx := newBacktransFixture(n, nb, ws)
		legacyOut := matrix.NewDense(n, n)
		fusedOut := matrix.NewDense(n, n)
		for _, wkr := range workerCounts {
			var s *sched.Scheduler
			if wkr > 1 {
				s = sched.New(wkr)
			}
			cb := tune.ColBlock(n, nb, wkr)
			// Warm the worker slabs and page in the operands once, untimed.
			fx.fused(s, cb, fusedOut)
			var tl, tf time.Duration
			for r := 0; r < reps; r++ {
				tl = minDur(tl, fx.legacy(s, cb, legacyOut), r == 0)
				tf = minDur(tf, fx.fused(s, cb, fusedOut), r == 0)
			}
			identical := fusedOut.Equalish(legacyOut, 0)
			if s != nil {
				s.Shutdown()
			}
			speedup := tl.Seconds() / tf.Seconds()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", wkr), fmt.Sprintf("%d", cb),
				secs(tl), secs(tf), f2(speedup), fmt.Sprintf("%v", identical),
			})
			points = append(points, BacktransPoint{
				N: n, NB: nb, Workers: wkr, ColBlock: cb,
				LegacySecs: tl.Seconds(), FusedSecs: tf.Seconds(),
				Speedup: speedup, Identical: identical,
			})
		}
	}
	t.Notes = append(t.Notes,
		"fused applies all Q2 diamonds then the full Q1 reflector sequence per column block while it is cache-hot, removing the global barrier and the second full sweep over E.",
		"sequentially the win is one-pass locality; with workers it adds the removed barrier (no idle cores between the phases).")
	return t, points
}

// AblationColBlock sweeps the column-block width of the fused path at a
// fixed size — the blocking trade-off behind the shared tune.ColBlock
// default: blocks too narrow pay per-block kernel overhead, blocks too wide
// overflow cache and (in parallel) starve the workers.
func AblationColBlock(n, nb, workers int, colBlocks []int) *Table {
	fx := newBacktransFixture(n, nb, work.NewArena())
	var s *sched.Scheduler
	if workers > 1 {
		s = sched.New(workers)
		defer s.Shutdown()
	}
	def := tune.ColBlock(n, nb, workers)
	t := &Table{
		Name:    fmt.Sprintf("Ablation — fused back-transformation column-block width (n=%d, nb=%d, workers=%d)", n, nb, workers),
		Headers: []string{"colBlock", "time", "speedup vs default"},
	}
	dst := matrix.NewDense(n, n)
	run := func(cb int) time.Duration {
		var d time.Duration
		for r := 0; r < 3; r++ {
			d = minDur(d, fx.fused(s, cb, dst), r == 0)
		}
		return d
	}
	base := run(def)
	t.Rows = append(t.Rows, []string{fmt.Sprintf("%d (default)", def), secs(base), "1.00"})
	for _, cb := range colBlocks {
		if cb == def {
			continue
		}
		d := run(cb)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", cb), secs(d), f2(base.Seconds() / d.Seconds())})
	}
	t.Notes = append(t.Notes,
		"the default column block derives from nb and the worker count (internal/tune); the sweep should show a plateau around it.")
	return t
}
