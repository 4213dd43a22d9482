package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	eigen "repro"
	"repro/internal/blas"
	"repro/internal/matrix"
)

// budget is the normalized residual and orthogonality budget the solver's
// own driver tests hold every solve to.
const budget = 200

// output is one solve's result in checkable form.
type output struct {
	values []float64
	vecs   *matrix.Dense // nil for values-only solves
}

// fromResult copies a public result (values, optional vectors), into dst
// when it has the vectors' shape (so repeated solves make no garbage of the
// benchmark's own), else into fresh storage.
func fromResult(values []float64, vecs *eigen.Matrix, dst *matrix.Dense) output {
	out := output{values: values}
	if vecs != nil {
		r, c := vecs.Dims()
		if dst == nil || dst.Rows != r || dst.Cols != c {
			dst = matrix.NewDense(r, c)
		}
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				dst.Data[i+j*dst.Stride] = vecs.At(i, j)
			}
		}
		out.vecs = dst
	}
	return out
}

// digest is a SHA-256 over the exact bits of the values and vectors: two
// outputs with equal digests are bitwise equal.
func (o output) digest() [32]byte {
	h := sha256.New()
	buf := make([]byte, 8)
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	for _, v := range o.values {
		put(v)
	}
	if o.vecs != nil {
		fmt.Fprintf(h, "|%dx%d|", o.vecs.Rows, o.vecs.Cols)
		for j := 0; j < o.vecs.Cols; j++ {
			for _, v := range o.vecs.Data[j*o.vecs.Stride : j*o.vecs.Stride+o.vecs.Rows] {
				put(v)
			}
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// quality is the outcome of checking one output against its input.
type quality struct {
	residual float64 // normalized eigenpair residual, or the values-only identity error
	ortho    float64 // normalized orthogonality error (0 for values-only)
	err      error   // non-nil when a check failed
}

// check verifies an output of the matrix ref.
//
//   - Eigenpairs: the testmat.Residual and testmat.OrthoError measures ≤
//     budget.
//   - Values only: ascending, Σλ = tr A and Σλ² = ‖A‖²_F, each within the
//     budget at residual scale (‖A‖_F·n·ε, resp. ‖A‖²_F·n·ε).
func check(ref *matrix.Dense, out output, il, iu int) quality {
	n := ref.Rows
	want := n
	if il != 0 {
		want = iu - il + 1
	}
	if len(out.values) != want {
		return quality{err: fmt.Errorf("got %d eigenvalues, want %d", len(out.values), want)}
	}
	vals := out.values
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] <= vals[i]) {
			return quality{err: fmt.Errorf("eigenvalues not ascending at %d: %g > %g", i, vals[i-1], vals[i])}
		}
	}
	if out.vecs != nil {
		if out.vecs.Rows != n || out.vecs.Cols != want {
			return quality{err: fmt.Errorf("vectors are %d×%d, want %d×%d", out.vecs.Rows, out.vecs.Cols, n, want)}
		}
		q := quality{residual: residual(ref, vals, out.vecs), ortho: orthoError(out.vecs)}
		if !(q.residual <= budget && q.ortho <= budget) {
			q.err = fmt.Errorf("residual %.3g, orthogonality %.3g (budget %d)", q.residual, q.ortho, budget)
		}
		return q
	}
	if il != 0 {
		return quality{err: fmt.Errorf("values-only range outputs are not checkable")}
	}
	var tr, fro2, sum, sum2 float64
	for j := 0; j < n; j++ {
		tr += ref.At(j, j)
		for i := 0; i < n; i++ {
			fro2 += ref.At(i, j) * ref.At(i, j)
		}
	}
	for _, v := range vals {
		sum += v
		sum2 += v * v
	}
	eps := 0x1p-52
	scaleF := math.Sqrt(fro2) * float64(n) * eps
	if scaleF == 0 {
		scaleF = 1
	}
	q := quality{residual: math.Max(math.Abs(sum-tr)/scaleF, math.Abs(sum2-fro2)/(math.Sqrt(fro2)*scaleF))}
	if !(q.residual <= budget) {
		q.err = fmt.Errorf("trace/Frobenius identity error %.3g (budget %d)", q.residual, budget)
	}
	return q
}

// residual is testmat.Residual — max_k ‖A·z_k − λ_k·z_k‖₂ / (‖A‖_F·n·ε) —
// with A·Z formed by one Dgemm instead of k Dgemv calls, which keeps the
// check of an n=2048 output to a few seconds.
func residual(a *matrix.Dense, vals []float64, z *matrix.Dense) float64 {
	n, k := a.Rows, z.Cols
	r := make([]float64, n*k)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, k, n, 1, a.Data, a.Stride, z.Data, z.Stride, 0, r, n)
	var worst float64
	for j := 0; j < k; j++ {
		blas.Daxpy(n, -vals[j], z.Data[j*z.Stride:], 1, r[j*n:], 1)
		worst = math.Max(worst, blas.Dnrm2(n, r[j*n:], 1))
	}
	norm := a.FrobeniusNorm()
	if norm == 0 {
		norm = 1
	}
	return worst / (norm * float64(n) * 0x1p-52)
}

// orthoError is testmat.OrthoError — ‖ZᵀZ − I‖_max / (n·ε) — with ZᵀZ
// formed by one Dgemm.
func orthoError(z *matrix.Dense) float64 {
	n, k := z.Rows, z.Cols
	g := make([]float64, k*k)
	blas.Dgemm(blas.Trans, blas.NoTrans, k, k, n, 1, z.Data, z.Stride, z.Data, z.Stride, 0, g, k)
	var worst float64
	for j := 0; j < k; j++ {
		g[j+j*k]--
		for i := 0; i < k; i++ {
			worst = math.Max(worst, math.Abs(g[i+j*k]))
		}
	}
	return worst / (float64(n) * 0x1p-52)
}
