package bench

import (
	"fmt"
	"time"

	"repro/internal/band"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// Figure1 regenerates the phase-breakdown pie charts of the paper's
// Figure 1: the percentage of total time spent in (reduction, tridiagonal
// eigensolver, back-transformation) for the one-stage (a) and two-stage (b)
// drivers when all eigenvectors are requested. The paper's headline: the
// one-stage reduction eats >60 % of the time (90 % for values-only), while
// the two-stage code shrinks phases 1+3 until the tridiagonal solver
// dominates (~50 %).
func Figure1(variant byte, sizes []int, workers int) *Table {
	two := variant == 'b'
	name := "Figure 1a — one-stage phase breakdown (all vectors)"
	if two {
		name = "Figure 1b — two-stage phase breakdown (all vectors)"
	}
	t := &Table{Name: name}
	if two {
		t.Headers = []string{"n", "stage1%", "stage2%", "eigT%", "updQ2%", "updQ1%", "total"}
	} else {
		t.Headers = []string{"n", "reduction%", "eigT%", "backtrans%", "total"}
	}
	for _, n := range sizes {
		a := matFor(n)
		tc, _, err := solveTimed(a, two, core.Options{Method: core.MethodDC, Vectors: true, Workers: workers})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("n=%d failed: %v", n, err))
			continue
		}
		tot := tc.PhaseTime("total")
		pct := func(ph string) string {
			return fmt.Sprintf("%.1f", 100*tc.PhaseTime(ph).Seconds()/tot.Seconds())
		}
		if two {
			// The fused back-transformation has no separate Q₂/Q₁ wall-clock
			// phases; split its one phase by the attributed flop shares so the
			// figure keeps the paper's five-slice breakdown.
			fused := tc.PhaseTime(trace.PhaseBacktransFused)
			q2, q1 := fused, time.Duration(0)
			fq2 := tc.AttributedFlops(trace.PhaseUpdateQ2)
			fq1 := tc.AttributedFlops(trace.PhaseUpdateQ1)
			if ftot := fq2 + fq1; ftot > 0 {
				q2 = time.Duration(float64(fused) * float64(fq2) / float64(ftot))
				q1 = fused - q2
			}
			pctD := func(d time.Duration) string {
				return fmt.Sprintf("%.1f", 100*d.Seconds()/tot.Seconds())
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				pct(trace.PhaseStage1), pct(trace.PhaseStage2), pct(trace.PhaseEigT),
				pctD(q2), pctD(q1), secs(tot),
			})
		} else {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				pct(trace.PhaseReduction), pct(trace.PhaseEigT), pct(trace.PhaseBacktrans), secs(tot),
			})
		}
	}
	if two {
		t.Notes = append(t.Notes, "paper: two-stage shrinks reduction+update until eigT(T) ≈ 50% of total.")
		t.Notes = append(t.Notes, "updQ2/updQ1 shares of the fused back-transformation are split by attributed flops (one wall-clock phase).")
	} else {
		t.Notes = append(t.Notes, "paper: one-stage reduction >60% of total with all vectors, ~90% values-only.")
	}
	return t
}

// Figure1ValuesOnly reports the reduction share when only eigenvalues are
// requested — the 90 % headline of Figure 1a's discussion.
func Figure1ValuesOnly(sizes []int) *Table {
	t := &Table{
		Name:    "Figure 1a (values-only variant) — reduction share without eigenvectors",
		Headers: []string{"n", "reduction%", "eigT%", "total"},
	}
	for _, n := range sizes {
		a := matFor(n)
		tc, _, err := solveTimed(a, false, core.Options{Method: core.MethodDC})
		if err != nil {
			continue
		}
		tot := tc.PhaseTime("total")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", 100*tc.PhaseTime(trace.PhaseReduction).Seconds()/tot.Seconds()),
			fmt.Sprintf("%.1f", 100*tc.PhaseTime(trace.PhaseEigT).Seconds()/tot.Seconds()),
			secs(tot),
		})
	}
	return t
}

// Figure4 regenerates the speedup curves of the paper's Figure 4: the
// two-stage algorithm versus the one-stage baseline (standing in for MKL;
// see DESIGN.md) across matrix sizes.
//
//	variant 'a': all eigenvectors, D&C        (paper: ≈2×)
//	variant 'b': all eigenvectors, BI (≈MRRR) (paper: ≈2×)
//	variant 'c': eigenvalues only (TRD-dominated) (paper: up to 8×)
//	variant 'd': 20 % of the eigenvectors     (paper: ≈4×)
func Figure4(variant byte, sizes []int, workers int) *Table {
	var name string
	method := core.MethodDC
	vectors := true
	frac := 1.0
	switch variant {
	case 'a':
		name = "Figure 4a — speedup vs one-stage, D&C, all vectors"
	case 'b':
		name = "Figure 4b — speedup vs one-stage, BI (MRRR stand-in), all vectors"
		method = core.MethodBI
	case 'c':
		name = "Figure 4c — speedup vs one-stage, eigenvalues only"
		vectors = false
	case 'd':
		name = "Figure 4d — speedup vs one-stage, 20% of vectors (BI)"
		method = core.MethodBI
		frac = 0.2
	default:
		panic("bench: unknown Figure 4 variant")
	}
	t := &Table{
		Name:    name,
		Headers: []string{"n", "one-stage", "two-stage", "speedup", "model", "red 1s", "red 2s", "red speedup"},
	}
	// The "model" column evaluates the paper's Eqs. 4–5 with this machine's
	// measured α and β at each size, so the table shows paper-shape,
	// model-prediction and measurement side by side.
	params := machineParams()
	modelFrac := frac
	if !vectors {
		modelFrac = 0.02 // values-only: the f→0 limit of the model
	}
	// The development host is a shared vCPU whose effective memory
	// bandwidth drifts between runs; alternating the two solvers and
	// keeping each one's best time removes the drift bias from the ratio.
	// Large sizes (out of L3, where a single run already takes minutes and
	// the DRAM-bound regime is stable) run once.
	for _, n := range sizes {
		reps := 3
		if n >= 2048 {
			reps = 1
		}
		a := matFor(n)
		o := core.Options{Method: method, Vectors: vectors, Workers: workers}
		if frac < 1 && vectors {
			o.IL, o.IU = 1, max(1, int(frac*float64(n)))
		}
		var t1, t2, red1, red2 time.Duration
		failed := false
		for r := 0; r < reps; r++ {
			tc1, _, err1 := solveTimed(a, false, o)
			tc2, _, err2 := solveTimed(a, true, o)
			if err1 != nil || err2 != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("n=%d failed: %v %v", n, err1, err2))
				failed = true
				break
			}
			t1 = minDur(t1, tc1.PhaseTime("total"), r == 0)
			t2 = minDur(t2, tc2.PhaseTime("total"), r == 0)
			red1 = minDur(red1, tc1.PhaseTime(trace.PhaseReduction), r == 0)
			red2 = minDur(red2, tc2.PhaseTime(trace.PhaseStage1)+tc2.PhaseTime(trace.PhaseStage2), r == 0)
		}
		if failed {
			continue
		}
		pred := model.TimeOneStage(float64(n), modelFrac, params) /
			model.TimeTwoStage(float64(n), band.DefaultNB, modelFrac, params)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), secs(t1), secs(t2), f2(t1.Seconds() / t2.Seconds()), f2(pred),
			secs(red1), secs(red2), f2(red1.Seconds() / red2.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "best of 3 alternating repetitions per solver below n=2048, single run above (shared-host noise mitigation).")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"model column uses the out-of-cache rates (alpha %.1f, beta %.1f Gflop/s); sizes whose matrix fits in L3 run the memory-bound baseline faster than beta, so measured < model there is the cache regime, not a solver defect (see EXPERIMENTS.md).",
		params.Alpha/1e9, params.Beta/1e9))
	switch variant {
	case 'a', 'b':
		t.Notes = append(t.Notes, "paper: ~2x total speedup; the reduction itself speeds up far more but eigT(T) is shared.")
	case 'c':
		t.Notes = append(t.Notes, "paper: up to 8x on 48 cores; on this substrate the ceiling is alpha/beta (see Table 3).")
	case 'd':
		t.Notes = append(t.Notes, "paper: ~4x — between the values-only and all-vectors cases, since f=0.2 shrinks phases 2+3.")
	}
	return t
}

// Fraction regenerates the paper's §7 closing measurement: the cost of
// f = 20 % of the eigenvectors versus the full set with the two-stage
// driver (paper: 150 s vs 400 s at n = 20 000 → ratio ≈ 0.375).
func Fraction(n int, workers int) *Table {
	a := matFor(n)
	t := &Table{
		Name:    fmt.Sprintf("Fraction experiment (§7) — partial vs full eigenvectors at n=%d", n),
		Headers: []string{"fraction", "time", "vs full"},
	}
	var full time.Duration
	for _, f := range []float64{1.0, 0.5, 0.2, 0.1} {
		// Full spectrum uses D&C (the fastest full path, like the paper's
		// f=1 runs); partial fractions use the subset-capable BI solver
		// (the MRRR stand-in, like Figure 4d).
		o := core.Options{Method: core.MethodDC, Vectors: true, Workers: workers}
		if f < 1 {
			o.Method = core.MethodBI
			o.IL, o.IU = 1, max(1, int(f*float64(n)))
		}
		tc, _, err := solveTimed(a, true, o)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("f=%.1f failed: %v", f, err))
			continue
		}
		tot := tc.PhaseTime("total")
		if f == 1.0 {
			full = tot
		}
		t.Rows = append(t.Rows, []string{f2(f), secs(tot), f2(tot.Seconds() / full.Seconds())})
	}
	t.Notes = append(t.Notes, "paper: f=0.2 costs ≈0.375x of f=1 (150s vs 400s at n=20000).")
	return t
}

// Figure5 regenerates the tile-size sweep of the paper's Figure 5: the
// Gflop/s of stage 1 (rises with nb — bigger tiles feed Level 3 better) and
// stage 2 (falls once tiles outgrow cache / parallelism shrinks) at a fixed
// matrix size, locating the compromise window.
func Figure5(n int, nbs []int, workers int) *Table {
	t := &Table{
		Name:    fmt.Sprintf("Figure 5 — effect of tile size nb on both stages (n=%d)", n),
		Headers: []string{"nb", "stage1 Gflop/s", "stage2 Gflop/s", "stage1 time", "stage2 time", "total reduction"},
	}
	n3 := float64(n) * float64(n) * float64(n)
	for _, nb := range nbs {
		a := matFor(n)
		tc, _, err := solveTimed(a, true, core.Options{Method: core.MethodDC, Vectors: false, NB: nb, Workers: workers})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("nb=%d failed: %v", nb, err))
			continue
		}
		s1 := tc.PhaseTime(trace.PhaseStage1)
		s2 := tc.PhaseTime(trace.PhaseStage2)
		// Stage-1 useful work is 4/3 n³ (the paper's convention: rate is
		// useful flops over time, so TS overheads depress the rate rather
		// than inflate it). Stage-2 work is ~6·nb·n².
		g1 := 4.0 / 3.0 * n3 / s1.Seconds() / 1e9
		g2 := 6 * float64(nb) * float64(n) * float64(n) / s2.Seconds() / 1e9
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nb), f3(g1), f3(g2), secs(s1), secs(s2), secs(s1 + s2),
		})
	}
	t.Notes = append(t.Notes,
		"paper: stage-1 rate grows with nb until ~300, stage-2 decays beyond the cache size; compromise 120<nb<200 on its machine.",
	)
	return t
}
