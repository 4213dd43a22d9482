package band

import (
	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/work"
)

// ApplyQ1 computes C := Q₁·C sequentially, treating all of C as one column
// block, where Q₁ is the orthogonal factor of the stage-1 reduction held in
// f. C must have f.N rows. It backs BuildQ1 and is the whole-matrix
// reference the fused back-transformation is pinned against; solves apply
// Q₁ per column block through ApplyQ1Block. tc may be nil.
func (f *Factor) ApplyQ1(c *matrix.Dense, tc *trace.Collector) {
	if c.Rows != f.N {
		panic("band: ApplyQ1 dimension mismatch")
	}
	if c.Cols == 0 {
		return
	}
	f.PrepareQ1()
	f.applyQ1Block(c, f.ws.Floats(work.Q1Apply, f.NB*c.Cols, false), tc)
}

// ApplyQ1Block applies the full Q₁ to one column block of C. PrepareQ1 must
// have run since the reduction; work must hold at least f.NB·c.Cols floats.
// It is the Q₁ half of the fused back-transformation task.
func (f *Factor) ApplyQ1Block(c *matrix.Dense, work []float64, tc *trace.Collector) {
	f.applyQ1Block(c, work, tc)
}

// PrepareQ1 forms the two-GEMM operands of Q₁ — for each GEQRT panel its
// reflector block with the unit diagonal explicit and Y = V·Tge, for each
// TS tile V₂·Tts (the top block of its Y = [Tts; V₂·Tts] is Tts itself) —
// in one arena slab retained across solves. It runs once per reduction
// (later calls return at once) and must finish before concurrent
// ApplyQ1Block calls start; ApplyQ1 calls it itself. Values-only solves
// never call it.
func (f *Factor) PrepareQ1() {
	if f.q1Ready {
		return
	}
	f.q1Ready = true
	nt, nb := f.NT, f.NB
	np := max(0, nt-1)
	size := 0
	for k := 0; k < np; k++ {
		size += 2 * f.A.TileRows(k+1) * f.PanelReflectors(k)
		for i := k + 2; i < nt; i++ {
			size += f.A.TileRows(i) * nb
		}
	}
	slab := f.ws.SlabOf(work.Q1Slab, size)
	if cap(f.vge) < np {
		f.vge = make([][]float64, np)
		f.yge = make([][]float64, np)
	}
	if cap(f.v2t) < np {
		f.v2t = make([][][]float64, np)
	}
	f.vge, f.yge, f.v2t = f.vge[:np], f.yge[:np], f.v2t[:np]
	for k := 0; k < np; k++ {
		m1, kr := f.A.TileRows(k+1), f.PanelReflectors(k)
		f.vge[k] = slab.Take(m1 * kr)
		f.yge[k] = slab.Take(m1 * kr)
		householder.ExplicitV(m1, kr, f.A.Tile(k+1, k), m1, f.vge[k], m1)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m1, kr, kr, 1, f.vge[k], m1, f.Tge[k], kr, 0, f.yge[k], m1)
		nts := max(0, nt-k-2)
		if cap(f.v2t[k]) < nts {
			f.v2t[k] = make([][]float64, nts)
		}
		f.v2t[k] = f.v2t[k][:nts]
		for i := k + 2; i < nt; i++ {
			m2 := f.A.TileRows(i)
			vt := slab.Take(m2 * nb)
			blas.Dgemm(blas.NoTrans, blas.NoTrans, m2, nb, nb, 1, f.A.Tile(i, k), m2, f.Tts[k][i-(k+2)], nb, 0, vt, m2)
			f.v2t[k][i-(k+2)] = vt
		}
	}
}

// Q1FlopsPerCol returns the flops ApplyQ1 spends per column of C (the
// GEQRT-panel and TS-tile costs summed over the whole reflector sequence,
// counting the triangular T multiply at its k² useful flops). The fused
// back-transformation uses it to attribute the Q₁ share of its single
// wall-clock phase.
func (f *Factor) Q1FlopsPerCol() int64 {
	var flops int64
	nb := int64(f.NB)
	for k := 0; k <= f.NT-2; k++ {
		m1 := int64(f.A.TileRows(k + 1))
		kr := int64(f.PanelReflectors(k))
		flops += 4 * m1 * kr // panel block reflector on the row tile
		for i := k + 2; i <= f.NT-1; i++ {
			m2 := int64(f.A.TileRows(i))
			flops += nb * (4*m2 + nb) // TS reflector on row pair (k+1, i)
		}
	}
	return flops
}

// applyQ1Block applies the full Q₁ to one column block with Dgemm only.
// work must hold at least f.NB·c.Cols floats.
func (f *Factor) applyQ1Block(c *matrix.Dense, work []float64, tc *trace.Collector) {
	nt, nb := f.NT, f.NB
	m := c.Cols
	// Q₁ = Q_0·Q_1⋯Q_{nt-2}, and within a panel Q_k = G_k·S_{k+2}⋯S_{nt-1};
	// applied to C right-to-left: k descending, i descending, G last.
	for k := nt - 2; k >= 0; k-- {
		a1 := c.Data[(k+1)*nb:]
		for i := nt - 1; i >= k+2; i-- {
			m2 := f.A.TileRows(i)
			applyTsWY(nb, m, m2, a1, c.Stride, c.Data[i*nb:], c.Stride,
				f.A.Tile(i, k), m2, f.Tts[k][i-(k+2)], nb, f.v2t[k][i-(k+2)], m2, work)
			tc.AddFlops(trace.KLarfb, int64(nb)*int64(m)*int64(4*m2+nb))
		}
		m1, kr := f.A.TileRows(k+1), f.PanelReflectors(k)
		householder.ApplyWY(m1, m, kr, f.vge[k], m1, f.yge[k], m1, a1, c.Stride, work)
		tc.AddFlops(trace.KLarfb, 4*int64(m1)*int64(m)*int64(kr))
	}
}

// BuildQ1 forms Q₁ explicitly (for tests and small problems).
func (f *Factor) BuildQ1(tc *trace.Collector) *matrix.Dense {
	q := matrix.Eye(f.N)
	f.ApplyQ1(q, tc)
	return q
}
