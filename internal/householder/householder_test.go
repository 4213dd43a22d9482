package householder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// applyHNaive builds H = I - tau v vᵀ densely and applies it to C.
func applyHNaive(side blas.Side, m, n int, v []float64, tau float64, c *matrix.Dense) *matrix.Dense {
	order := m
	if side == blas.Right {
		order = n
	}
	h := matrix.Eye(order)
	for i := 0; i < order; i++ {
		for j := 0; j < order; j++ {
			h.Set(i, j, h.At(i, j)-tau*v[i]*v[j])
		}
	}
	out := matrix.NewDense(m, n)
	if side == blas.Left {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, m, 1, h.Data, h.Stride, c.Data, c.Stride, 0, out.Data, out.Stride)
	} else {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, n, 1, c.Data, c.Stride, h.Data, h.Stride, 0, out.Data, out.Stride)
	}
	return out
}

func TestLarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 33} {
		alpha := rng.NormFloat64()
		x := make([]float64, n-1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		orig := append([]float64{alpha}, x...)
		beta, tau := Larfg(n, alpha, x, 1)
		// Apply H = I - tau v vᵀ to the original vector; result must be
		// [beta, 0, ..., 0].
		v := append([]float64{1}, x...)
		var vdotu float64
		for i := range v {
			vdotu += v[i] * orig[i]
		}
		got := make([]float64, n)
		for i := range got {
			got[i] = orig[i] - tau*v[i]*vdotu
		}
		if math.Abs(got[0]-beta) > 1e-13*(1+math.Abs(beta)) {
			t.Fatalf("n=%d: H·u[0] = %g, want beta = %g", n, got[0], beta)
		}
		for i := 1; i < n; i++ {
			if math.Abs(got[i]) > 1e-13*(1+math.Abs(beta)) {
				t.Fatalf("n=%d: H·u[%d] = %g, want 0", n, i, got[i])
			}
		}
		// Norm preservation: |beta| == ‖u‖₂.
		nrm := blas.Dnrm2(n, orig, 1)
		if math.Abs(math.Abs(beta)-nrm) > 1e-13*(1+nrm) {
			t.Fatalf("n=%d: |beta| = %g, want %g", n, math.Abs(beta), nrm)
		}
	}
}

func TestLarfgZeroTail(t *testing.T) {
	x := []float64{0, 0, 0}
	beta, tau := Larfg(4, 2.5, x, 1)
	if tau != 0 || beta != 2.5 {
		t.Fatalf("zero tail: beta=%v tau=%v, want 2.5, 0", beta, tau)
	}
}

func TestLarfgTinyValues(t *testing.T) {
	// Exercise the rescaling loop with subnormal-scale inputs.
	alpha := 1e-300
	x := []float64{3e-300, 4e-300}
	beta, tau := Larfg(3, alpha, x, 1)
	want := math.Sqrt(1+9+16) * 1e-300
	if math.Abs(math.Abs(beta)-want)/want > 1e-10 {
		t.Fatalf("tiny Larfg: |beta| = %g, want %g", math.Abs(beta), want)
	}
	if tau < 0 || tau > 2 {
		t.Fatalf("tau = %g outside [0,2]", tau)
	}
}

func TestLarfgProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		alpha := rng.NormFloat64()
		x := make([]float64, n-1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		u := append([]float64{alpha}, x...)
		nrm := blas.Dnrm2(n, u, 1)
		beta, tau := Larfg(n, alpha, x, 1)
		// tau in [0, 2] for a real reflector and |beta| = ‖u‖.
		return tau >= 0 && tau <= 2 && math.Abs(math.Abs(beta)-nrm) <= 1e-12*(1+nrm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLarfAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n := 7, 5
	work := make([]float64, m+n)
	for _, side := range []blas.Side{blas.Left, blas.Right} {
		vlen := m
		if side == blas.Right {
			vlen = n
		}
		v := make([]float64, vlen)
		v[0] = 1
		for i := 1; i < vlen; i++ {
			v[i] = rng.NormFloat64()
		}
		tau := 2 / blas.Ddot(vlen, v, 1, v, 1) // makes H exactly orthogonal
		c := matrix.NewDense(m, n)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		want := applyHNaive(side, m, n, v, tau, c)
		Larf(side, m, n, v, 1, tau, c.Data, c.Stride, work)
		if !c.Equalish(want, 1e-12) {
			t.Fatalf("Larf side=%c mismatch", side)
		}
	}
}

// buildVT generates k random forward column reflectors in an m×k V (unit
// lower trapezoidal, essential parts stored below the diagonal) plus taus.
func buildVT(rng *rand.Rand, m, k int) (v []float64, tau []float64) {
	v = make([]float64, m*k)
	tau = make([]float64, k)
	for j := 0; j < k; j++ {
		// Garbage on/above diagonal to verify it is not referenced.
		for i := 0; i <= j && i < m; i++ {
			v[i+j*m] = rng.NormFloat64() * 100
		}
		vec := []float64{1}
		for i := j + 1; i < m; i++ {
			v[i+j*m] = rng.NormFloat64()
			vec = append(vec, v[i+j*m])
		}
		tau[j] = 2 / blas.Ddot(len(vec), vec, 1, vec, 1)
	}
	return v, tau
}

// denseH builds the full m×m matrix H = H_0·H_1⋯H_{k-1} from stored V, tau.
func denseH(m, k int, v []float64, tau []float64) *matrix.Dense {
	h := matrix.Eye(m)
	work := make([]float64, m)
	for j := 0; j < k; j++ {
		vj := make([]float64, m)
		vj[j] = 1
		for i := j + 1; i < m; i++ {
			vj[i] = v[i+j*m]
		}
		// h := h · H_j  (applying from the right accumulates the product in
		// order H_0 H_1 ... H_{k-1}).
		Larf(blas.Right, m, m, vj, 1, tau[j], h.Data, h.Stride, work)
	}
	return h
}

func TestLarftLarfbLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{6, 1}, {6, 3}, {9, 4}, {12, 12}} {
		m, k := dims[0], dims[1]
		n := 5
		v, tau := buildVT(rng, m, k)
		tm := make([]float64, k*k)
		Larft(m, k, v, m, tau, tm, k)
		h := denseH(m, k, v, tau)

		c := matrix.NewDense(m, n)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		// want = Hᵀ·C (trans) and H·C (notrans).
		for _, tr := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			want := matrix.NewDense(m, n)
			blas.Dgemm(tr, blas.NoTrans, m, n, m, 1, h.Data, h.Stride, c.Data, c.Stride, 0, want.Data, want.Stride)
			got := c.Clone()
			work := make([]float64, k*n)
			Larfb(blas.Left, tr, m, n, k, v, m, tm, k, got.Data, got.Stride, work)
			if !got.Equalish(want, 1e-11) {
				t.Fatalf("Larfb Left trans=%c m=%d k=%d mismatch", tr, m, k)
			}
		}
	}
}

func TestLarftLarfbRight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{6, 2}, {10, 5}} {
		nv, k := dims[0], dims[1]
		m := 7
		v, tau := buildVT(rng, nv, k)
		tm := make([]float64, k*k)
		Larft(nv, k, v, nv, tau, tm, k)
		h := denseH(nv, k, v, tau)

		c := matrix.NewDense(m, nv)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		for _, tr := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			want := matrix.NewDense(m, nv)
			blas.Dgemm(blas.NoTrans, tr, m, nv, nv, 1, c.Data, c.Stride, h.Data, h.Stride, 0, want.Data, want.Stride)
			got := c.Clone()
			work := make([]float64, k*m)
			Larfb(blas.Right, tr, m, nv, k, v, nv, tm, k, got.Data, got.Stride, work)
			if !got.Equalish(want, 1e-11) {
				t.Fatalf("Larfb Right trans=%c nv=%d k=%d mismatch", tr, nv, k)
			}
		}
	}
}

func TestBlockReflectorOrthogonal(t *testing.T) {
	// H from Larft/Larfb must be orthogonal: apply H then Hᵀ and recover C.
	rng := rand.New(rand.NewSource(5))
	m, k, n := 11, 4, 6
	v, tau := buildVT(rng, m, k)
	tm := make([]float64, k*k)
	Larft(m, k, v, m, tau, tm, k)
	c := matrix.NewDense(m, n)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	got := c.Clone()
	work := make([]float64, k*n)
	Larfb(blas.Left, blas.NoTrans, m, n, k, v, m, tm, k, got.Data, got.Stride, work)
	Larfb(blas.Left, blas.Trans, m, n, k, v, m, tm, k, got.Data, got.Stride, work)
	if !got.Equalish(c, 1e-11) {
		t.Fatal("H·Hᵀ·C != C: block reflector not orthogonal")
	}
}

func TestLarfbZeroSizes(t *testing.T) {
	// Degenerate shapes must be no-ops, not panics.
	Larfb(blas.Left, blas.NoTrans, 0, 3, 2, nil, 1, nil, 2, nil, 1, nil)
	Larfb(blas.Right, blas.Trans, 3, 0, 2, nil, 1, nil, 2, nil, 3, nil)
	Larfb(blas.Left, blas.NoTrans, 3, 3, 0, nil, 1, nil, 1, make([]float64, 9), 3, nil)
}

// TestLarftKeepsStrictLowerUntouched pins the invariant Y = V·T relies on:
// Larft writes only the upper triangle of T (τ = 0 columns included), so a
// T built in a zeroed buffer has an exactly zero strict lower triangle and
// V·T is a plain Dgemm.
func TestLarftKeepsStrictLowerUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{6, 3}, {13, 5}, {20, 12}} {
		m, k := dims[0], dims[1]
		v, tau := buildVT(rng, m, k)
		tau[k/2] = 0
		tm := make([]float64, k*k)
		for i := range tm {
			tm[i] = math.NaN()
		}
		Larft(m, k, v, m, tau, tm, k)
		for j := 0; j < k; j++ {
			for i := 0; i < k; i++ {
				if got := tm[i+j*k]; (i > j) != math.IsNaN(got) {
					t.Fatalf("m=%d k=%d: T[%d,%d] = %g (strict lower must stay untouched, upper written)", m, k, i, j, got)
				}
			}
		}
	}
}

// TestApplyWYMatchesLarfb checks the two-GEMM form H·C = C − Y·(Vᵀ·C) with
// V from ExplicitV and Y = V·T against Larfb and the dense product, on
// reflector counts around the 8-row micro-kernel and with a τ = 0 column.
func TestApplyWYMatchesLarfb(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{6, 1}, {9, 4}, {17, 7}, {30, 8}, {40, 13}, {12, 12}} {
		m, k := dims[0], dims[1]
		n := 11
		v, tau := buildVT(rng, m, k)
		if k > 2 {
			tau[1] = 0
		}
		tm := make([]float64, k*k)
		Larft(m, k, v, m, tau, tm, k)
		ve := make([]float64, m*k)
		ExplicitV(m, k, v, m, ve, m)
		y := make([]float64, m*k)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, k, k, 1, ve, m, tm, k, 0, y, m)

		c := matrix.NewDense(m, n)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		h := denseH(m, k, v, tau)
		want := matrix.NewDense(m, n)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, m, 1, h.Data, h.Stride, c.Data, c.Stride, 0, want.Data, want.Stride)
		got := c.Clone()
		ApplyWY(m, n, k, ve, m, y, m, got.Data, got.Stride, make([]float64, k*n))
		if !got.Equalish(want, 1e-12*float64(m)) {
			t.Fatalf("m=%d k=%d: ApplyWY != H·C", m, k)
		}
		ref := c.Clone()
		Larfb(blas.Left, blas.NoTrans, m, n, k, v, m, tm, k, ref.Data, ref.Stride, make([]float64, k*n))
		if !got.Equalish(ref, 1e-12*float64(m)) {
			t.Fatalf("m=%d k=%d: ApplyWY != Larfb", m, k)
		}
	}
}
