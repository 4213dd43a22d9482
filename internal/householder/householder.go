// Package householder implements the Householder reflector machinery the
// reductions are built from: reflector generation (Larfg), single-reflector
// application (Larf), and the compact WY blocked representation
// (Larft/Larfb) used to aggregate several reflectors so they can be applied
// with Level 3 BLAS — the core trick behind both reduction stages and both
// back-transformations in the paper.
package householder

import (
	"math"

	"repro/internal/blas"
)

// Larfg generates an elementary Householder reflector H of order n such
// that
//
//	H · [alpha; x] = [beta; 0],   H = I − tau·v·vᵀ,   v = [1; vTail]
//
// On return x is overwritten with vTail (the essential part of v). It
// returns beta and tau. When the input is already in the desired form
// (x = 0), tau = 0 and H = I. This mirrors LAPACK's DLARFG including the
// rescaling loop that guards against underflow of the norm.
func Larfg(n int, alpha float64, x []float64, incX int) (beta, tau float64) {
	if n <= 0 {
		return alpha, 0
	}
	if n == 1 {
		return alpha, 0
	}
	xnorm := blas.Dnrm2(n-1, x, incX)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	const safmin = 0x1p-1022 / (2 * 0x1p-52) // smallest value whose reciprocal doesn't overflow
	var scaleCount int
	for math.Abs(beta) < safmin {
		// xnorm and beta may be inaccurate; scale x and recompute.
		blas.Dscal(n-1, 1/safmin, x, incX)
		beta /= safmin
		alpha /= safmin
		scaleCount++
		if scaleCount > 20 {
			break
		}
	}
	if scaleCount > 0 {
		xnorm = blas.Dnrm2(n-1, x, incX)
		beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	}
	tau = (beta - alpha) / beta
	blas.Dscal(n-1, 1/(alpha-beta), x, incX)
	for ; scaleCount > 0; scaleCount-- {
		beta *= safmin
	}
	return beta, tau
}

// lapy2 returns sqrt(x² + y²) without unnecessary overflow.
func lapy2(x, y float64) float64 {
	return math.Hypot(x, y)
}

// Larf applies the elementary reflector H = I − tau·v·vᵀ to the m×n matrix
// C from the given side. v has length m (side Left) or n (side Right), and
// is used as stored — callers that follow the "essential part" convention
// must pass a v whose first element is 1. work must have length ≥ n (Left)
// or ≥ m (Right).
func Larf(side blas.Side, m, n int, v []float64, incV int, tau float64, c []float64, ldc int, work []float64) {
	if tau == 0 {
		return
	}
	if side == blas.Left {
		// w = Cᵀ v ; C -= tau · v · wᵀ
		blas.Dgemv(blas.Trans, m, n, 1, c, ldc, v, incV, 0, work[:n], 1)
		blas.Dger(m, n, -tau, v, incV, work[:n], 1, c, ldc)
	} else {
		// w = C v ; C -= tau · w · vᵀ
		blas.Dgemv(blas.NoTrans, m, n, 1, c, ldc, v, incV, 0, work[:m], 1)
		blas.Dger(m, n, -tau, work[:m], 1, v, incV, c, ldc)
	}
}

// Larft forms the upper triangular factor T of the compact WY block
// reflector H = I − V·T·Vᵀ from k forward, column-stored elementary
// reflectors. V is m×k; only the strictly-below-diagonal part of V is read:
// reflector j is taken to be v_j = [0…0, 1, V[j+1:m, j]] regardless of what
// is stored on and above the diagonal. T is k×k with leading dimension ldt.
func Larft(m, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		// T[0:i, i] = -tau[i] · V[:, 0:i]ᵀ · v_i, using the implicit
		// unit-diagonal structure: v_i is zero above row i and 1 at row i.
		for j := 0; j < i; j++ {
			// Row i contribution: V[i, j] * 1.
			sum := v[i+j*ldv]
			for r := i + 1; r < m; r++ {
				sum += v[r+j*ldv] * v[r+i*ldv]
			}
			t[j+i*ldt] = -tau[i] * sum
		}
		// T[0:i, i] = T[0:i, 0:i] · T[0:i, i] (triangular update).
		if i > 0 {
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t, ldt, t[i*ldt:], 1)
		}
		t[i+i*ldt] = tau[i]
	}
}

// Larfb applies the block reflector H = I − V·T·Vᵀ (or its transpose) to
// the m×n matrix C:
//
//	side=Left:  C := op(H)·C      (V is m×k)
//	side=Right: C := C·op(H)      (V is n×k)
//
// V is stored column-wise, forward direction, with the implicit unit lower
// trapezoidal structure (entries on and above the diagonal of its leading
// k×k block are not referenced; the diagonal is taken as 1). work must have
// length ≥ k·n (Left) or k·m (Right).
func Larfb(side blas.Side, trans blas.Transpose, m, n, k int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int, work []float64) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if side == blas.Left {
		// W (k×n) = VᵀC = V1ᵀ·C1 + V2ᵀ·C2 with V1 the unit lower
		// triangular k×k top of V and V2 the (m−k)×k remainder.
		w := work[:k*n]
		for j := 0; j < n; j++ {
			blas.Dcopy(k, c[j*ldc:], 1, w[j*k:], 1)
		}
		blas.Dtrmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, k, n, 1, v, ldv, w, k)
		if m > k {
			blas.Dgemm(blas.Trans, blas.NoTrans, k, n, m-k, 1, v[k:], ldv, c[k:], ldc, 1, w, k)
		}
		// W := op(T)·W.
		tt := blas.NoTrans
		if trans == blas.Trans {
			tt = blas.Trans
		}
		blas.Dtrmm(blas.Left, blas.Upper, tt, blas.NonUnit, k, n, 1, t, ldt, w, k)
		// C := C − V·W: C2 −= V2·W, C1 −= V1·W.
		if m > k {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, m-k, n, k, -1, v[k:], ldv, w, k, 1, c[k:], ldc)
		}
		blas.Dtrmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, k, n, 1, v, ldv, w, k)
		for j := 0; j < n; j++ {
			blas.Daxpy(k, -1, w[j*k:], 1, c[j*ldc:], 1)
		}
		return
	}
	// side == Right: C := C − (C·V)·op(T)·Vᵀ. V is n×k.
	w := work[:m*k]
	// W (m×k) = C·V = C1·V1 + C2·V2 where C1 is the first k columns of C.
	for j := 0; j < k; j++ {
		blas.Dcopy(m, c[j*ldc:], 1, w[j*m:], 1)
	}
	blas.Dtrmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, m, k, 1, v, ldv, w, m)
	if n > k {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, k, n-k, 1, c[k*ldc:], ldc, v[k:], ldv, 1, w, m)
	}
	// W := W·op(T).
	tt := blas.NoTrans
	if trans == blas.Trans {
		tt = blas.Trans
	}
	blas.Dtrmm(blas.Right, blas.Upper, tt, blas.NonUnit, m, k, 1, t, ldt, w, m)
	// C := C − W·Vᵀ: C2 −= W·V2ᵀ, C1 −= W·V1ᵀ.
	if n > k {
		blas.Dgemm(blas.NoTrans, blas.Trans, m, n-k, k, -1, w, m, v[k:], ldv, 1, c[k*ldc:], ldc)
	}
	blas.Dtrmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, m, k, 1, v, ldv, w, m)
	for j := 0; j < k; j++ {
		blas.Daxpy(m, -1, w[j*m:], 1, c[j*ldc:], 1)
	}
}

// The back-transformations apply each block reflector to many column blocks
// of the eigenvector matrix, so they precompute the Bischof–Van Loan WY form
// H = I − Y·Vᵀ with Y = V·T once per solve. Every application is then two
// plain Dgemm calls: no triangular multiply by V₁ or T remains at apply time.

// ExplicitV copies the m×k reflector block stored LAPACK-style in src (the
// essentials strictly below the diagonal; whatever lies on and above it is
// ignored) into dst with its unit diagonal and the zeros above it written
// out, so dst can be a plain Dgemm operand.
func ExplicitV(m, k int, src []float64, lds int, dst []float64, ldd int) {
	for j := 0; j < k; j++ {
		col := dst[j*ldd : j*ldd+m]
		clear(col[:j])
		col[j] = 1
		copy(col[j+1:], src[j+1+j*lds:j*lds+m])
	}
}

// ApplyWY computes C := (I − Y·Vᵀ)·C = H·C for the m×n matrix C, with V the
// explicit m×k reflector block (see ExplicitV) and Y = V·T, formed by one
// Dgemm with the k×k factor T — which needs T's strict lower triangle zero,
// as Larft leaves a zeroed buffer: W = Vᵀ·C, then C −= Y·W. work must have
// length ≥ k·n.
func ApplyWY(m, n, k int, v []float64, ldv int, y []float64, ldy int, c []float64, ldc int, work []float64) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	w := work[:k*n]
	blas.Dgemm(blas.Trans, blas.NoTrans, k, n, m, 1, v, ldv, c, ldc, 0, w, k)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, -1, y, ldy, w, k, 1, c, ldc)
}
