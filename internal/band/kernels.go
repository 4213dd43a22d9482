// Package band implements stage 1 of the two-stage reduction: the
// DAG-scheduled tile algorithm that reduces a dense symmetric matrix to
// symmetric band form, A = Q₁·B·Q₁ᵀ with bandwidth nb (the tile size). The
// panel of each step is QR-factored with the classic tile kernels (GEQRT
// for the top tile, a TSQRT chain for the tiles below) and the resulting
// block reflectors are applied to the trailing submatrix from both sides as
// independent tile tasks, which is what gives the stage its compute-bound,
// Level-3 character (paper §5.1).
package band

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/trace"
)

// Geqrt computes the QR factorization of an m×n tile in place:
// A = Q·R with R in the upper triangle and the reflector essentials below
// the diagonal. t receives the k×k (k = min(m,n)) triangular factor of the
// compact WY representation. Equivalent to PLASMA's CORE_dgeqrt with inner
// blocking disabled.
func Geqrt(m, n int, a []float64, lda int, t []float64, ldt int, work []float64, tc *trace.Collector) {
	k := min(m, n)
	tau := work[:k]
	scratch := work[k : k+n]
	for i := 0; i < k; i++ {
		var beta float64
		beta, tau[i] = householder.Larfg(m-i, a[i+i*lda], a[i+1+i*lda:], 1)
		// Apply H_i to the trailing columns, using the stored essentials
		// with an explicit temporary 1 on the diagonal.
		if i+1 < n {
			aii := a[i+i*lda]
			a[i+i*lda] = 1
			householder.Larf(blas.Left, m-i, n-i-1, a[i+i*lda:], 1, tau[i], a[i+(i+1)*lda:], lda, scratch)
			a[i+i*lda] = aii
		}
		a[i+i*lda] = beta
	}
	householder.Larft(m, k, a, lda, tau, t, ldt)
	tc.AddFlops(trace.KLarf, 2*int64(m)*int64(n)*int64(k))
}

// Ormqr applies the block reflector from Geqrt (V packed in the lower
// triangle of v, triangular factor t, k reflectors) to the mc×nc tile c.
// work must have length ≥ k·nc (Left) or k·mc (Right).
func Ormqr(side blas.Side, trans blas.Transpose, mc, nc, k int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int, work []float64, tc *trace.Collector) {
	householder.Larfb(side, trans, mc, nc, k, v, ldv, t, ldt, c, ldc, work)
	tc.AddFlops(trace.KLarfb, 4*int64(mc)*int64(nc)*int64(k))
}

// Tsqrt computes the QR factorization of the "triangle-on-top-of-square"
// stack [R; A2], where R is the nb×nb upper triangle held in a1 and A2 is an
// m2×nb tile. Because R is triangular, each reflector j has the structure
// v_j = [e_j ; v2_j]: the top part is an identity column and only the dense
// part v2_j (length m2) needs storing — it overwrites column j of a2. R is
// updated in place; t receives the nb×nb triangular block factor.
// Equivalent to PLASMA's CORE_dtsqrt.
func Tsqrt(nb, m2 int, a1 []float64, lda1 int, a2 []float64, lda2 int, t []float64, ldt int, work []float64, tc *trace.Collector) {
	tau := work[:nb]
	for j := 0; j < nb; j++ {
		// Reflector from [R[j,j]; A2[:,j]].
		beta, tj := householder.Larfg(m2+1, a1[j+j*lda1], a2[j*lda2:], 1)
		a1[j+j*lda1] = beta
		tau[j] = tj
		if tj != 0 {
			// Apply to the trailing columns jj > j:
			// w = R[j,jj] + v2ᵀ·A2[:,jj]; R[j,jj] -= τ·w; A2[:,jj] -= τ·w·v2.
			v2 := a2[j*lda2 : j*lda2+m2]
			for jj := j + 1; jj < nb; jj++ {
				col := a2[jj*lda2 : jj*lda2+m2]
				w := a1[j+jj*lda1] + blas.Ddot(m2, v2, 1, col, 1)
				a1[j+jj*lda1] -= tj * w
				blas.Daxpy(m2, -tj*w, v2, 1, col, 1)
			}
		}
	}
	// Build T: T[0:j, j] = −τ_j · T[0:j,0:j] · (V2[:,0:j]ᵀ · v2_j); the
	// identity top parts contribute nothing across distinct columns.
	for j := 0; j < nb; j++ {
		if tau[j] == 0 {
			for i := 0; i <= j; i++ {
				t[i+j*ldt] = 0
			}
			continue
		}
		for i := 0; i < j; i++ {
			t[i+j*ldt] = -tau[j] * blas.Ddot(m2, a2[i*lda2:], 1, a2[j*lda2:], 1)
		}
		if j > 0 {
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, j, t, ldt, t[j*ldt:], 1)
		}
		t[j+j*ldt] = tau[j]
	}
	tc.AddFlops(trace.KLarf, 2*int64(m2+1)*int64(nb)*int64(nb))
}

// Tsmqr applies the TS block reflector from Tsqrt (dense part v2 with ldv
// rows per column, factor t, k reflectors) to a pair of tiles. The reflector
// is H = I − V·op(T)·Vᵀ with V = [I_k ; V2].
//
//	side = Left:  [A1; A2] := op(H)·[A1; A2], A1 is k×n1, A2 is m2×n1.
//	side = Right: [A1, A2] := [A1, A2]·op(H), A1 is m1×k, A2 is m1×m2
//	              (the columns of A2 pair with the rows of V2).
//
// work needs k·n1 (Left) or m1·k (Right) scratch. Equivalent to PLASMA's
// CORE_dtsmqr.
func Tsmqr(side blas.Side, trans blas.Transpose, k, n1, m1, m2 int, a1 []float64, lda1 int, a2 []float64, lda2 int, v2 []float64, ldv int, t []float64, ldt int, work []float64, tc *trace.Collector) {
	tt := blas.NoTrans
	if trans == blas.Trans {
		tt = blas.Trans
	}
	if side == blas.Left {
		// W (k×n1) = A1 + V2ᵀ·A2.
		w := work[:k*n1]
		for j := 0; j < n1; j++ {
			blas.Dcopy(k, a1[j*lda1:], 1, w[j*k:], 1)
		}
		blas.Dgemm(blas.Trans, blas.NoTrans, k, n1, m2, 1, v2, ldv, a2, lda2, 1, w, k)
		// W := op(T)·W.
		blas.Dtrmm(blas.Left, blas.Upper, tt, blas.NonUnit, k, n1, 1, t, ldt, w, k)
		// A1 -= W ; A2 -= V2·W.
		for j := 0; j < n1; j++ {
			blas.Daxpy(k, -1, w[j*k:], 1, a1[j*lda1:], 1)
		}
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m2, n1, k, -1, v2, ldv, w, k, 1, a2, lda2)
		tc.AddFlops(trace.KLarfb, int64(k)*int64(n1)*int64(4*m2+k))
		return
	}
	// side == Right: W (m1×k) = A1 + A2·V2.
	w := work[:m1*k]
	for j := 0; j < k; j++ {
		blas.Dcopy(m1, a1[j*lda1:], 1, w[j*m1:], 1)
	}
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m1, k, m2, 1, a2, lda2, v2, ldv, 1, w, m1)
	// W := W·op(T).
	blas.Dtrmm(blas.Right, blas.Upper, tt, blas.NonUnit, m1, k, 1, t, ldt, w, m1)
	// A1 -= W ; A2 -= W·V2ᵀ.
	for j := 0; j < k; j++ {
		blas.Daxpy(m1, -1, w[j*m1:], 1, a1[j*lda1:], 1)
	}
	blas.Dgemm(blas.NoTrans, blas.Trans, m1, m2, k, -1, w, m1, v2, ldv, 1, a2, lda2)
	tc.AddFlops(trace.KLarfb, int64(m1)*int64(k)*int64(4*m2+k))
}

// applyTsWY computes [A1; A2] := H·[A1; A2] for the TS block reflector of
// Tsqrt in its two-GEMM form H = I − Y·Vᵀ, with V = [I_k; V2] and
// Y = V·T = [T; V2·T]: W = A1 + V2ᵀ·A2 (A1 staged into W by memmove), then
// A1 −= T·W and A2 −= (V2·T)·W — three Dgemm calls, no triangular multiply.
// A1 is k×n1, A2 is m2×n1, v2t holds V2·T (m2×k), and T's strict lower
// triangle must be zero (Tsqrt never writes it into its zeroed buffer).
// work needs k·n1 floats.
func applyTsWY(k, n1, m2 int, a1 []float64, lda1 int, a2 []float64, lda2 int, v2 []float64, ldv int, t []float64, ldt int, v2t []float64, ldvt int, work []float64) {
	w := work[:k*n1]
	for j := 0; j < n1; j++ {
		copy(w[j*k:(j+1)*k], a1[j*lda1:j*lda1+k])
	}
	blas.Dgemm(blas.Trans, blas.NoTrans, k, n1, m2, 1, v2, ldv, a2, lda2, 1, w, k)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, k, n1, k, -1, t, ldt, w, k, 1, a1, lda1)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m2, n1, k, -1, v2t, ldvt, w, k, 1, a2, lda2)
}
