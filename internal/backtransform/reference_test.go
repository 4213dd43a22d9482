package backtransform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sbr"
	"repro/internal/sched"
	"repro/internal/testmat"
)

// The reference appliers below are the back-transformation kernels the
// two-GEMM form replaced: each block reflector held as V (implicit unit
// diagonal) plus its compact-WY factor T, applied through the triangular
// multiplies of householder.Larfb (Q₂ diamonds, Q₁ panels) and band.Tsmqr
// (Q₁ TS tiles). They apply the same reflectors in the same order, so the
// two forms differ only in rounding; the drift test bounds that difference.

// refApplyQ2 computes E := Q₂·E with the diamonds of Plan (same lattice,
// group width and order) applied by householder.Larfb.
func refApplyQ2(res *bulge.Result, group int, e *matrix.Dense) {
	if group <= 0 {
		group = defaultGroup(res.B)
	}
	type slot struct{ s, l int }
	at := make(map[slot]*bulge.Reflector, len(res.Refs))
	maxSweep, maxLevel := 0, 0
	for i := range res.Refs {
		r := &res.Refs[i]
		at[slot{r.Sweep, r.Level}] = r
		maxSweep, maxLevel = max(maxSweep, r.Sweep), max(maxLevel, r.Level)
	}
	if len(res.Refs) == 0 {
		return
	}
	work := make([]float64, group*e.Cols)
	for j := maxSweep / group; j >= 0; j-- {
		lo, hi := j*group, min(j*group+group, maxSweep+1)
		for l := 0; l <= maxLevel; l++ {
			rowStart, rowEnd, k := -1, 0, 0
			for s := lo; s < hi; s++ {
				r := at[slot{s, l}]
				if r == nil {
					continue
				}
				if rowStart < 0 {
					rowStart = r.Row - (s - lo)
				}
				k = max(k, s-lo+1)
				rowEnd = max(rowEnd, r.Row+len(r.V)+1)
			}
			if k == 0 {
				continue
			}
			rows := rowEnd - rowStart
			v := make([]float64, rows*k)
			tau := make([]float64, k)
			t := make([]float64, k*k)
			for s := lo; s < hi; s++ {
				if r := at[slot{s, l}]; r != nil {
					c := s - lo
					tau[c] = r.Tau
					copy(v[c+1+c*rows:], r.V)
				}
			}
			householder.Larft(rows, k, v, rows, tau, t, k)
			householder.Larfb(blas.Left, blas.NoTrans, rows, e.Cols, k, v, rows, t, k,
				e.Data[rowStart:], e.Stride, work)
		}
	}
}

// refApplyQ1 computes C := Q₁·C with band.Tsmqr on the TS tiles and
// band.Ormqr (householder.Larfb) on the GEQRT panels.
func refApplyQ1(f *band.Factor, c *matrix.Dense) {
	nt, nb, m := f.NT, f.NB, c.Cols
	work := make([]float64, nb*m)
	for k := nt - 2; k >= 0; k-- {
		for i := nt - 1; i >= k+2; i-- {
			m2 := f.A.TileRows(i)
			a1 := c.View((k+1)*nb, 0, nb, m)
			a2 := c.View(i*nb, 0, m2, m)
			band.Tsmqr(blas.Left, blas.NoTrans, nb, m, 0, m2, a1.Data, a1.Stride, a2.Data, a2.Stride,
				f.A.Tile(i, k), m2, f.Tts[k][i-(k+2)], nb, work, nil)
		}
		m1, kr := f.A.TileRows(k+1), f.PanelReflectors(k)
		band.Ormqr(blas.Left, blas.NoTrans, m1, m, kr, f.A.Tile(k+1, k), m1, f.Tge[k], kr,
			c.Data[(k+1)*nb:], c.Stride, work, nil)
	}
}

// driftRatio returns max over columns of ‖got_j − want_j‖₂ / (n·ε·‖e_j‖₂):
// the rounding difference of two applications of the same orthogonal
// operator to e, in units of n·ε relative to the column it acted on.
func driftRatio(got, want, e *matrix.Dense) float64 {
	worst := 0.0
	for j := 0; j < e.Cols; j++ {
		var d2, e2 float64
		for i := 0; i < e.Rows; i++ {
			d := got.At(i, j) - want.At(i, j)
			d2 += d * d
			e2 += e.At(i, j) * e.At(i, j)
		}
		if e2 == 0 {
			continue
		}
		worst = max(worst, math.Sqrt(d2/e2)/(float64(e.Rows)*0x1p-52))
	}
	return worst
}

// driftBudget bounds driftRatio between the two-GEMM kernels and the
// reference appliers. Both are backward-stable applications of the same
// reflectors; the measured worst case over the cases below is ~0.14, so the
// budget leaves an order of magnitude of headroom while a wrong operand
// shows up as O(1/(n·ε)).
const driftBudget = 2.0

func randDense(rng *rand.Rand, r, c int) *matrix.Dense {
	e := matrix.NewDense(r, c)
	for i := range e.Data {
		e.Data[i] = rng.NormFloat64()
	}
	return e
}

// TestBacktransDriftVsReference compares the fused two-GEMM
// back-transformation E := Q₁·S⋯·Q₂·E (and each factor on its own) with the
// Larfb/Tsmqr reference on the shapes where the two could part ways: a
// ragged last tile, τ = 0 reflectors, reflector counts that are not a
// multiple of the 8-row GEMM micro-kernel, SBR sweep plans, and thin
// eigenvector subsets as EigRange produces.
func TestBacktransDriftVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	diag := func(n int) *matrix.Dense {
		a := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, rng.NormFloat64())
		}
		return a
	}
	tridiagonal := func(n int) *matrix.Dense {
		a := diag(n)
		for i := 0; i+1 < n; i++ {
			v := rng.NormFloat64()
			a.Set(i+1, i, v)
			a.Set(i, i+1, v)
		}
		return a
	}
	random := func(n int) *matrix.Dense { return testmat.RandomSym(rng, n) }
	// Diagonal leading half, random trailing half, no coupling: blocks in
	// the leading part carry τ = 0 reflectors next to live ones.
	halfDiag := func(n int) *matrix.Dense {
		a := testmat.RandomSym(rng, n)
		for j := 0; j < n/2; j++ {
			for i := 0; i < n; i++ {
				if i != j {
					a.Set(i, j, 0)
					a.Set(j, i, 0)
				}
			}
		}
		return a
	}
	for _, tc := range []struct {
		name         string
		a            func(n int) *matrix.Dense
		n, nb, group int
		sweeps       []int // SBR narrowing bandwidths (nil: direct chase)
		cols         int   // eigenvector columns (0: all n)
		colBlock     int
	}{
		{name: "ragged-tile", a: random, n: 50, nb: 8, colBlock: 16},
		{name: "ragged-tile-k12", a: random, n: 77, nb: 12, group: 12, colBlock: 0},
		{name: "tau0-diagonal", a: diag, n: 40, nb: 8},
		{name: "tau0-tridiagonal", a: tridiagonal, n: 45, nb: 6, group: 5},
		{name: "tau0-mixed", a: halfDiag, n: 58, nb: 8, group: 6, colBlock: 11},
		{name: "k-not-mult-8", a: random, n: 64, nb: 10, group: 5, colBlock: 24},
		{name: "k-not-mult-8-g3", a: random, n: 61, nb: 7, group: 3},
		{name: "sbr-one-sweep", a: random, n: 72, nb: 16, sweeps: []int{6}, colBlock: 20},
		{name: "sbr-two-sweeps", a: random, n: 83, nb: 16, group: 5, sweeps: []int{9, 3}},
		{name: "range-subset", a: random, n: 66, nb: 8, cols: 7},
		{name: "range-subset-sbr", a: random, n: 70, nb: 12, sweeps: []int{4}, cols: 13, colBlock: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := band.Reduce(tc.a(tc.n), tc.nb, nil, nil, nil)
			bd := f.Band
			var sweepRes []*bulge.Result
			for i, b2 := range tc.sweeps {
				sf := sbr.Reduce(bd, sbr.Config{B2: b2, WantQ: true, Keys: sbr.KeysFor(i)}, nil, nil, nil)
				sweepRes = append(sweepRes, sf.Result())
				bd = sf.Band
			}
			res := bulge.Chase(bd, nil, 0, true, nil, nil)
			p := NewPlan(res, tc.group, nil)
			// Sweep plans in application order: the last sweep first.
			var plans []*Plan
			for i := len(sweepRes) - 1; i >= 0; i-- {
				plans = append(plans, NewPlan(sweepRes[i], tc.group, nil))
			}
			cols := tc.cols
			if cols == 0 {
				cols = tc.n
			}
			e := randDense(rng, tc.n, cols)

			want := e.Clone()
			refApplyQ2(res, tc.group, want)
			for i := len(sweepRes) - 1; i >= 0; i-- {
				refApplyQ2(sweepRes[i], tc.group, want)
			}
			refApplyQ1(f, want)

			s := sched.New(2)
			defer s.Shutdown()
			got := e.Clone()
			job := s.NewJob(nil)
			p.ApplyFusedWith(f, plans, got, job, tc.colBlock, nil)
			if err := job.Err(); err != nil {
				t.Fatal(err)
			}
			r := driftRatio(got, want, e)
			t.Logf("fused drift %.3g n·ε", r)
			if r > driftBudget {
				t.Fatalf("fused two-GEMM vs reference: drift %.3g n·ε, budget %g", r, driftBudget)
			}

			// Each factor on its own, through the whole-matrix appliers.
			q2 := e.Clone()
			p.Apply(q2, nil)
			q2ref := e.Clone()
			refApplyQ2(res, tc.group, q2ref)
			if r := driftRatio(q2, q2ref, e); r > driftBudget {
				t.Fatalf("Q2 two-GEMM vs Larfb reference: drift %.3g n·ε, budget %g", r, driftBudget)
			}
			q1 := e.Clone()
			f.ApplyQ1(q1, nil)
			q1ref := e.Clone()
			refApplyQ1(f, q1ref)
			if r := driftRatio(q1, q1ref, e); r > driftBudget {
				t.Fatalf("Q1 two-GEMM vs Ormqr/Tsmqr reference: drift %.3g n·ε, budget %g", r, driftBudget)
			}
		})
	}
}

// TestPlanYInvariant pins what the two-GEMM diamonds are built on: V holds
// its unit diagonal and zero fill explicitly (so Vᵀ·C is one Dgemm), and
// Y = V·T makes H = I − Y·Vᵀ orthogonal — which fails if T's strict lower
// triangle were not zero when Y was formed.
func TestPlanYInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := randBand(rng, 40, 6)
	res := bulge.Chase(b, nil, 0, true, nil, nil)
	p := NewPlan(res, 5, nil)
	if p.NumBlocks() == 0 {
		t.Fatal("no diamonds")
	}
	for bi := range p.blocks {
		d := &p.blocks[bi]
		for c := 0; c < d.k; c++ {
			if d.v[c+c*d.rows] != 1 {
				t.Fatalf("block %d column %d: diagonal %g, want explicit 1", bi, c, d.v[c+c*d.rows])
			}
			for r := 0; r < c; r++ {
				if d.v[r+c*d.rows] != 0 {
					t.Fatalf("block %d: V[%d,%d] = %g above the diagonal", bi, r, c, d.v[r+c*d.rows])
				}
			}
		}
		h := matrix.Eye(d.rows)
		blas.Dgemm(blas.NoTrans, blas.Trans, d.rows, d.rows, d.k, -1, d.y, d.rows, d.v, d.rows, 1, h.Data, h.Stride)
		hth := matrix.NewDense(d.rows, d.rows)
		blas.Dgemm(blas.Trans, blas.NoTrans, d.rows, d.rows, d.rows, 1, h.Data, h.Stride, h.Data, h.Stride, 0, hth.Data, hth.Stride)
		if !hth.Equalish(matrix.Eye(d.rows), 1e-13*float64(d.rows)) {
			t.Fatalf("block %d: (I − Y·Vᵀ) is not orthogonal", bi)
		}
	}
}
