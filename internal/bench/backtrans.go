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

// BacktransPoint is one measured configuration of the fused
// back-transformation, in the machine-readable form that cmd/eigbench
// serializes to BENCH_backtrans.json.
type BacktransPoint struct {
	N         int     `json:"n"`
	NB        int     `json:"nb"`
	Workers   int     `json:"workers"`
	ColBlock  int     `json:"col_block"`
	FusedSecs float64 `json:"fused_secs"`
}

// backtransFixture is the per-size state of the measurement: one reduction,
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

// fused runs the single-pass back-transformation on a copy of E.
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

// BacktransSweep measures the fused back-transformation in isolation at
// several sizes and worker counts. The reduction and chase are built once
// per size; only the E update is timed, best of reps after an untimed
// warm-up, at the shared tune.ColBlock default.
func BacktransSweep(sizes []int, nb int, workerCounts []int, reps int) (*Table, []BacktransPoint) {
	if reps < 1 {
		reps = 1
	}
	t := &Table{
		Name:    fmt.Sprintf("Back-transformation — fused single pass (nb=%d, best of %d)", nb, reps),
		Headers: []string{"n", "workers", "colBlock", "fused"},
	}
	var points []BacktransPoint
	ws := work.NewArena()
	for _, n := range sizes {
		fx := newBacktransFixture(n, nb, ws)
		out := matrix.NewDense(n, n)
		for _, wkr := range workerCounts {
			var s *sched.Scheduler
			if wkr > 1 {
				s = sched.New(wkr)
			}
			cb := tune.ColBlock(n, nb, wkr)
			// Warm the worker slabs and page in the operands once, untimed.
			fx.fused(s, cb, out)
			var tf time.Duration
			for r := 0; r < reps; r++ {
				tf = minDur(tf, fx.fused(s, cb, out), r == 0)
			}
			if s != nil {
				s.Shutdown()
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", wkr), fmt.Sprintf("%d", cb), secs(tf),
			})
			points = append(points, BacktransPoint{N: n, NB: nb, Workers: wkr, ColBlock: cb, FusedSecs: tf.Seconds()})
		}
	}
	t.Notes = append(t.Notes,
		"one task per column block applies all Q2 diamonds, then the full Q1 reflector sequence, while the block is cache-hot.")
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
