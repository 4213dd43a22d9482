package band

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/work"
)

func randSym(rng *rand.Rand, n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestGeqrtReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{4, 4}, {6, 4}, {3, 5}, {8, 8}} {
		m, n := dims[0], dims[1]
		k := min(m, n)
		a := matrix.NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		orig := a.Clone()
		tm := make([]float64, k*k)
		work := make([]float64, k+n)
		Geqrt(m, n, a.Data, a.Stride, tm, k, work, nil)
		// R = upper triangle of the factored tile.
		r := matrix.NewDense(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= min(j, m-1); i++ {
				r.Set(i, j, a.At(i, j))
			}
		}
		// Q·R must equal the original: apply Q to R via Ormqr.
		qr := r.Clone()
		w2 := make([]float64, k*n)
		Ormqr(blas.Left, blas.NoTrans, m, n, k, a.Data, a.Stride, tm, k, qr.Data, qr.Stride, w2, nil)
		if !qr.Equalish(orig, 1e-12) {
			t.Fatalf("m=%d n=%d: Q·R != A", m, n)
		}
		// Orthogonality: Qᵀ·Q·X == X.
		x := matrix.NewDense(m, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		y := x.Clone()
		w3 := make([]float64, k*3)
		Ormqr(blas.Left, blas.NoTrans, m, 3, k, a.Data, a.Stride, tm, k, y.Data, y.Stride, w3, nil)
		Ormqr(blas.Left, blas.Trans, m, 3, k, a.Data, a.Stride, tm, k, y.Data, y.Stride, w3, nil)
		if !y.Equalish(x, 1e-12) {
			t.Fatalf("m=%d n=%d: Q not orthogonal", m, n)
		}
	}
}

func TestTsqrtTsmqrReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m2 := range []int{1, 3, 4, 7} {
		nb := 4
		// Triangular top R0 and dense bottom A2.
		r0 := matrix.NewDense(nb, nb)
		for j := 0; j < nb; j++ {
			for i := 0; i <= j; i++ {
				r0.Set(i, j, rng.NormFloat64())
			}
		}
		a2 := matrix.NewDense(m2, nb)
		for i := range a2.Data {
			a2.Data[i] = rng.NormFloat64()
		}
		r := r0.Clone()
		v2 := a2.Clone()
		tm := make([]float64, nb*nb)
		work := make([]float64, nb)
		Tsqrt(nb, m2, r.Data, r.Stride, v2.Data, v2.Stride, tm, nb, work, nil)
		// Check: Hᵀ·[R0; A2] == [R; 0] by applying Tsmqr to the originals.
		c1 := r0.Clone()
		c2 := a2.Clone()
		w2 := make([]float64, nb*nb)
		Tsmqr(blas.Left, blas.Trans, nb, nb, 0, m2, c1.Data, c1.Stride, c2.Data, c2.Stride, v2.Data, v2.Stride, tm, nb, w2, nil)
		if !c1.Equalish(r, 1e-12) {
			t.Fatalf("m2=%d: top block != R after Hᵀ", m2)
		}
		if c2.MaxAbs() > 1e-12 {
			t.Fatalf("m2=%d: bottom block not annihilated: %g", m2, c2.MaxAbs())
		}
		// Right application consistency: (Hᵀ·Xᵀ)ᵀ == X·H, so Left-Trans on
		// the transpose must match Right-NoTrans.
		mc := 5
		x1 := matrix.NewDense(mc, nb)
		x2 := matrix.NewDense(mc, m2)
		for i := range x1.Data {
			x1.Data[i] = rng.NormFloat64()
		}
		for i := range x2.Data {
			x2.Data[i] = rng.NormFloat64()
		}
		y1 := x1.Transpose()
		y2 := x2.Transpose()
		wL := make([]float64, nb*mc)
		Tsmqr(blas.Left, blas.Trans, nb, mc, 0, m2, y1.Data, y1.Stride, y2.Data, y2.Stride, v2.Data, v2.Stride, tm, nb, wL, nil)
		wR := make([]float64, mc*nb)
		Tsmqr(blas.Right, blas.NoTrans, nb, 0, mc, m2, x1.Data, x1.Stride, x2.Data, x2.Stride, v2.Data, v2.Stride, tm, nb, wR, nil)
		if !x1.Equalish(y1.Transpose(), 1e-12) || !x2.Equalish(y2.Transpose(), 1e-12) {
			t.Fatalf("m2=%d: right application inconsistent with left-on-transpose", m2)
		}
	}
}

func TestReduceBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, nb int }{{12, 4}, {16, 4}, {20, 8}, {13, 4}, {30, 7}, {8, 8}, {5, 8}, {9, 1}} {
		a := randSym(rng, tc.n)
		f := Reduce(a.Clone(), tc.nb, nil, nil, nil)
		if f.Band.KD > tc.nb {
			t.Fatalf("n=%d nb=%d: band KD %d > nb", tc.n, tc.nb, f.Band.KD)
		}
		// The reduced tile matrix must be ~zero strictly below the R of the
		// subdiagonal tiles: verified implicitly by reconstruction below.
		q := f.BuildQ1(nil)
		// Orthogonality.
		n := tc.n
		qtq := matrix.NewDense(n, n)
		blas.Dgemm(blas.Trans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, q.Data, q.Stride, 0, qtq.Data, qtq.Stride)
		if !qtq.Equalish(matrix.Eye(n), 1e-12*float64(n)) {
			t.Fatalf("n=%d nb=%d: Q1 not orthogonal", tc.n, tc.nb)
		}
		// Reconstruction: Q1·B·Q1ᵀ == A.
		bd := f.Band.ToDense()
		tmp := matrix.NewDense(n, n)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, bd.Data, bd.Stride, 0, tmp.Data, tmp.Stride)
		rec := matrix.NewDense(n, n)
		blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, tmp.Data, tmp.Stride, q.Data, q.Stride, 0, rec.Data, rec.Stride)
		scale := a.FrobeniusNorm() + 1
		if !rec.Equalish(a, 1e-12*scale*float64(n)) {
			t.Fatalf("n=%d nb=%d: Q1·B·Q1ᵀ != A", tc.n, tc.nb)
		}
	}
}

func TestReduceScheduledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, nb := 24, 4
	a := randSym(rng, n)
	fseq := Reduce(a.Clone(), nb, nil, nil, nil)
	for _, workers := range []int{1, 2, 4} {
		s := sched.New(workers)
		fpar := Reduce(a.Clone(), nb, s.NewJob(nil), nil, nil)
		s.Shutdown()
		// Each tile sees an identical sequence of operations regardless of
		// interleaving, so the results must match bit for bit.
		for i := range fseq.Band.Data {
			if fseq.Band.Data[i] != fpar.Band.Data[i] {
				t.Fatalf("workers=%d: scheduled band differs from sequential at %d", workers, i)
			}
		}
		for k := range fseq.Tge {
			for i := range fseq.Tge[k] {
				if fseq.Tge[k][i] != fpar.Tge[k][i] {
					t.Fatalf("workers=%d: Tge[%d] differs", workers, k)
				}
			}
		}
	}
}

// TestApplyQ1TransInverse checks that Q₁ is orthogonal: Q₁ᵀ·Q₁ = I, with
// Q₁ formed by BuildQ1 and the product taken explicitly (the applier only
// applies Q₁ itself).
func TestApplyQ1TransInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, nb int }{{20, 4}, {23, 6}} {
		f := Reduce(randSym(rng, tc.n), tc.nb, nil, nil, nil)
		q := f.BuildQ1(nil)
		qtq := matrix.NewDense(tc.n, tc.n)
		blas.Dgemm(blas.Trans, blas.NoTrans, tc.n, tc.n, tc.n, 1, q.Data, q.Stride, q.Data, q.Stride, 0, qtq.Data, qtq.Stride)
		if !qtq.Equalish(matrix.Eye(tc.n), 1e-12) {
			t.Fatalf("n=%d nb=%d: Q1ᵀ·Q1 != I", tc.n, tc.nb)
		}
	}
}

func TestReduceSpectrumPreserved(t *testing.T) {
	// Trace and Frobenius norm of B equal those of A (similarity transform).
	rng := rand.New(rand.NewSource(7))
	n, nb := 26, 5
	a := randSym(rng, n)
	f := Reduce(a.Clone(), nb, nil, nil, nil)
	bd := f.Band.ToDense()
	var trA, frA, trB, frB float64
	for i := 0; i < n; i++ {
		trA += a.At(i, i)
		trB += bd.At(i, i)
		for j := 0; j < n; j++ {
			frA += a.At(i, j) * a.At(i, j)
			frB += bd.At(i, j) * bd.At(i, j)
		}
	}
	if math.Abs(trA-trB) > 1e-11*float64(n) {
		t.Fatalf("trace not preserved: %g vs %g", trA, trB)
	}
	if math.Abs(frA-frB) > 1e-9*frA {
		t.Fatalf("Frobenius not preserved: %g vs %g", frA, frB)
	}
}

func TestReduceTinyAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// n ≤ nb: nothing to do, B == A.
	a := randSym(rng, 3)
	f := Reduce(a.Clone(), 8, nil, nil, nil)
	if !f.Band.ToDense().Equalish(a, 0) {
		t.Fatal("n<nb should leave the matrix unchanged")
	}
	// n == 1.
	one := matrix.NewDense(1, 1)
	one.Set(0, 0, 42)
	f1 := Reduce(one, 4, nil, nil, nil)
	if f1.Band.At(0, 0) != 42 {
		t.Fatal("1x1 reduce broken")
	}
}

// TestTFactorsStrictLowerZero pins the invariant the two-GEMM Q₁ operands
// are formed on: Tsqrt writes only the upper triangle of T, and the T
// factors Reduce hands out have an exactly zero strict lower triangle —
// also when the arena they come from served an earlier, different solve.
func TestTFactorsStrictLowerZero(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nb, m2 := 6, 5
	r := matrix.NewDense(nb, nb)
	for j := 0; j < nb; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, rng.NormFloat64())
		}
	}
	a2 := matrix.NewDense(m2, nb)
	for i := range a2.Data {
		a2.Data[i] = rng.NormFloat64()
	}
	for i := range a2.Data[:m2] {
		a2.Data[i] = 0 // first column already annihilated: τ₀ = 0
	}
	tm := make([]float64, nb*nb)
	for i := range tm {
		tm[i] = math.NaN()
	}
	Tsqrt(nb, m2, r.Data, r.Stride, a2.Data, a2.Stride, tm, nb, make([]float64, nb), nil)
	for j := 0; j < nb; j++ {
		for i := j + 1; i < nb; i++ {
			if !math.IsNaN(tm[i+j*nb]) {
				t.Fatalf("Tsqrt wrote T[%d,%d] below the diagonal", i, j)
			}
		}
	}

	strictLowerZero := func(tf []float64, k int) bool {
		for j := 0; j < k; j++ {
			for i := j + 1; i < k; i++ {
				if tf[i+j*k] != 0 {
					return false
				}
			}
		}
		return true
	}
	ws := work.NewArena()
	for _, tc := range []struct{ n, nb int }{{40, 8}, {37, 8}, {30, 6}} {
		// Dirty the arena's T slab first so a missing clear would show.
		for i, dirty := 0, ws.SlabOf(work.Stage1Slab, 4096).Take(4096); i < len(dirty); i++ {
			dirty[i] = math.NaN()
		}
		f := Reduce(randSym(rng, tc.n), tc.nb, nil, ws, nil)
		for k := range f.Tge {
			if !strictLowerZero(f.Tge[k], f.PanelReflectors(k)) {
				t.Fatalf("n=%d nb=%d: Tge[%d] strict lower not zero", tc.n, tc.nb, k)
			}
			for _, tts := range f.Tts[k] {
				if !strictLowerZero(tts, tc.nb) {
					t.Fatalf("n=%d nb=%d: a Tts of panel %d has a nonzero strict lower triangle", tc.n, tc.nb, k)
				}
			}
		}
	}
}
