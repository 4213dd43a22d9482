// Package backtransform implements the eigenvector back-transformation of
// the two-stage algorithm — the paper's core new contribution (§6). Given
// the eigenvectors E of the tridiagonal matrix it computes
//
//	Z = Q₁ · (Q₂ · E)
//
// where Q₂ is the awkward one: its reflectors are length-b slivers arranged
// on a shifted lattice (Figure 3b). Applying them one by one is Level-2
// BLAS and memory-bound, so consecutive sweeps at the same chase level are
// aggregated into diamond-shaped blocks and applied with the compact WY
// representation (Level 3), in an order that linearizes the bulge-chasing
// dependence DAG (Figure 3d). Parallelism comes from partitioning E into
// column blocks that never interact (Figure 3c), so each core applies every
// diamond to its own block with no communication.
package backtransform

import (
	"sort"

	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/work"
)

// defaultGroup picks the diamond width for a chase bandwidth b. Wider
// diamonds raise the GEMM inner dimension k of both apply products, but the
// aggregated V spans b+g−1 rows, so the applied flops grow by (b+g−1)/b —
// the paper's "small extra cost" — and so do the retained V/Y slabs. The
// two-GEMM apply also wants k to be a multiple of the 8-row GEMM
// micro-kernel, or a fringe kernel runs on every diamond. The record
// (eigbench -exp ablate-group and the traced eig_n2048 benchmark, n=2048,
// nb=48, 2 workers; DESIGN.md §7) has g = 16–48 on one plateau for Q₂
// alone, g = 8 and 12 — the old b/4 rule — behind it, and the fused
// back-transformation faster at g = 24 than at 16. So: b/2 rounded down to
// a multiple of 8, within [4, 32].
func defaultGroup(b int) int {
	return min(32, max(4, (b/2)&^7))
}

// diamond is one aggregated block of reflectors: group j covers sweeps
// [j·g, (j+1)·g) at a fixed chase level. It is held in the two-GEMM form
// H = I − Y·Vᵀ: V with its unit diagonal and zero fill written out, and
// Y = V·T formed once at plan build, so applying it needs Dgemm only.
type diamond struct {
	rowStart int // global row of the first reflector's unit diagonal
	rows     int // row span of the aggregated V
	k        int // number of reflectors (columns of V)
	v        []float64
	y        []float64
}

// Plan precomputes the diamond blocks of Q₂ for a chase result, so repeated
// applications (e.g. to different eigenvector sets) skip the aggregation.
// A Plan built with a workspace arena borrows arena storage (the V/Y slab,
// the block list) and is only valid until the arena is recycled.
type Plan struct {
	n     int
	b     int // chase bandwidth (== stage-1 tile size in the driver)
	group int
	maxK  int // widest diamond (bounds the apply workspace)
	ws    *work.Arena
	// blocks in application order for Q₂·E (valid DAG linearization:
	// sweep-group descending, level ascending within a group).
	blocks []diamond
	// naive fallback data.
	refs []bulge.Reflector
}

// planCache is the retained per-arena aggregation scratch: the Plan header,
// the (sweep, level) lattice index, the block list backing array, and the
// τ and T scratch each diamond's Y is formed through.
type planCache struct {
	plan   Plan
	idx    []int32
	blocks []diamond
	tau    []float64
	t      []float64
}

// NewPlan builds the diamond decomposition of Q₂ with the given group size
// (≤ 0 picks a bandwidth-dependent default). ws may be nil.
func NewPlan(res *bulge.Result, group int, ws *work.Arena) *Plan {
	return NewPlanKeyed(res, group, ws, work.BacktransPlan, work.BacktransSlab)
}

// NewPlanKeyed is NewPlan with explicit arena keys for the retained plan
// header and the V/Y slab. The fixed-key NewPlan retains exactly one plan
// per arena; multi-sweep SBR pipelines need one live plan per narrowing
// sweep plus the chase's, so each takes its own key pair.
func NewPlanKeyed(res *bulge.Result, group int, ws *work.Arena, planKey, slabKey work.Key) *Plan {
	if group <= 0 {
		group = defaultGroup(res.B)
	}
	if group < 1 {
		group = 1
	}
	cache, _ := ws.Value(planKey).(*planCache)
	if cache == nil {
		cache = &planCache{} // nil ws: fresh each call, SetValue is a no-op
		ws.SetValue(planKey, cache)
	}
	p := &cache.plan
	*p = Plan{n: res.N, b: res.B, group: group, refs: res.Refs, ws: ws}
	if len(res.Refs) == 0 {
		return p
	}

	// Index reflectors on the (sweep, level) lattice.
	maxSweep, maxLevel := 0, 0
	for i := range res.Refs {
		r := &res.Refs[i]
		if r.Sweep > maxSweep {
			maxSweep = r.Sweep
		}
		if r.Level > maxLevel {
			maxLevel = r.Level
		}
	}
	nl := maxLevel + 1
	idxLen := (maxSweep + 1) * nl
	if cap(cache.idx) < idxLen {
		cache.idx = make([]int32, idxLen)
	}
	idx := cache.idx[:idxLen]
	for i := range idx {
		idx[i] = -1
	}
	for i := range res.Refs {
		r := &res.Refs[i]
		idx[r.Sweep*nl+r.Level] = int32(i)
	}
	at := func(s, l int) *bulge.Reflector {
		if i := idx[s*nl+l]; i >= 0 {
			return &res.Refs[i]
		}
		return nil
	}

	// diamondShape measures group j, level l without building it: the row
	// span and reflector count of the aggregated block.
	ng := maxSweep/group + 1
	diamondShape := func(j, l int) (lo, rowStart, rows, k int) {
		lo = j * group
		hi := min(lo+group, maxSweep+1)
		rowStart, rowEnd := -1, 0
		for s2 := lo; s2 < hi; s2++ {
			r := at(s2, l)
			if r == nil {
				continue
			}
			if rowStart < 0 {
				rowStart = r.Row - (r.Sweep - lo)
			}
			if c := r.Sweep - lo; c+1 > k {
				k = c + 1
			}
			if end := r.Row + len(r.V); end+1 > rowEnd {
				rowEnd = end + 1
			}
		}
		if k > 0 {
			rows = rowEnd - rowStart
		}
		return
	}

	// First pass: count blocks and size the V/Y slab exactly.
	nBlocks, slabCap := 0, 0
	for j := ng - 1; j >= 0; j-- {
		for l := 0; l < nl; l++ {
			_, _, rows, k := diamondShape(j, l)
			if k == 0 {
				continue
			}
			nBlocks++
			slabCap += 2 * rows * k
		}
	}
	slab := ws.SlabOf(slabKey, slabCap)
	if cap(cache.blocks) < nBlocks {
		cache.blocks = make([]diamond, 0, nBlocks)
	}
	if cap(cache.tau) < group {
		cache.tau = make([]float64, group)
		cache.t = make([]float64, group*group)
	}

	// Second pass: build the diamonds in application order for Q₂·E
	// (group index j descending, level ascending).
	blocks := cache.blocks[:0]
	for j := ng - 1; j >= 0; j-- {
		for l := 0; l < nl; l++ {
			lo, rowStart, rows, k := diamondShape(j, l)
			if k == 0 {
				continue
			}
			d := diamond{rowStart: rowStart, rows: rows, k: k}
			d.v = slab.Take(rows * k)
			d.y = slab.Take(rows * k)
			tau := cache.tau[:k]
			clear(tau)
			for c := 0; c < k; c++ {
				d.v[c+c*rows] = 1
			}
			hi := min(lo+group, maxSweep+1)
			for s2 := lo; s2 < hi; s2++ {
				r := at(s2, l)
				if r == nil {
					continue
				}
				c := r.Sweep - lo
				local := r.Row - rowStart
				if local != c {
					// The lattice guarantees a one-row shift per sweep;
					// anything else is a logic error upstream.
					panic("backtransform: reflector off the diamond lattice")
				}
				tau[c] = r.Tau
				copy(d.v[local+1+c*rows:], r.V)
			}
			// T lives only long enough to form Y: Larft writes its upper
			// triangle, the clear keeps the strict lower one zero for V·T.
			t := cache.t[:k*k]
			clear(t)
			householder.Larft(rows, k, d.v, rows, tau, t, k)
			blas.Dgemm(blas.NoTrans, blas.NoTrans, rows, k, k, 1, d.v, rows, t, k, 0, d.y, rows)
			blocks = append(blocks, d)
			if k > p.maxK {
				p.maxK = k
			}
		}
	}
	cache.blocks = blocks
	p.blocks = blocks
	return p
}

// NumBlocks reports how many diamond blocks the plan holds.
func (p *Plan) NumBlocks() int { return len(p.blocks) }

// FlopsPerCol returns the flops Q₂ application spends per eigenvector
// column (4·rows·k per diamond: Vᵀ·C and Y·W). The fused path uses it to
// attribute the Q₂ share of its single wall-clock phase.
func (p *Plan) FlopsPerCol() int64 {
	var f int64
	for i := range p.blocks {
		d := &p.blocks[i]
		f += 4 * int64(d.rows) * int64(d.k)
	}
	return f
}

// OverlapEdges counts unordered pairs of diamonds whose row ranges overlap —
// the dependence edges of the paper's Figure 3d DAG that the plan's
// linearization satisfies. It runs in O(m log m) by counting the complement:
// a pair is disjoint iff one interval ends at or before the other starts, so
// edges = C(m,2) − Σᵢ |{j : endⱼ ≤ startᵢ}| (intervals are non-empty, so a
// disjoint pair is counted exactly once, by its later member).
func (p *Plan) OverlapEdges() int {
	m := len(p.blocks)
	if m < 2 {
		return 0
	}
	starts := make([]int, m)
	ends := make([]int, m)
	for i := range p.blocks {
		starts[i] = p.blocks[i].rowStart
		ends[i] = p.blocks[i].rowStart + p.blocks[i].rows
	}
	sort.Ints(ends)
	disjoint := 0
	for _, s := range starts {
		disjoint += sort.SearchInts(ends, s+1) // ends ≤ s
	}
	return m*(m-1)/2 - disjoint
}

// overlapEdgesQuad is the quadratic reference implementation of
// OverlapEdges, kept for the equality test that pins the sweep against it.
func (p *Plan) overlapEdgesQuad() int {
	edges := 0
	for i := 0; i < len(p.blocks); i++ {
		for j := i + 1; j < len(p.blocks); j++ {
			a, b := &p.blocks[i], &p.blocks[j]
			if a.rowStart < b.rowStart+b.rows && b.rowStart < a.rowStart+a.rows {
				edges++
			}
		}
	}
	return edges
}

// Apply computes E := Q₂·E sequentially, treating all of E as one column
// block. It is the whole-matrix reference the fused back-transformation is
// pinned against, and the Q₂-only entry of the group-width ablation; solves
// apply Q₂ through ApplyFusedWith. tc may be nil.
func (p *Plan) Apply(e *matrix.Dense, tc *trace.Collector) {
	if e.Rows != p.n {
		panic("backtransform: E row count mismatch")
	}
	if e.Cols == 0 {
		return
	}
	p.applyBlock(e, p.ws.Floats(work.BacktransApply, p.maxK*e.Cols, false), tc)
}

// applyBlock applies every diamond to one column block of E, two Dgemm
// calls each (W = Vᵀ·C, C −= Y·W). work must hold at least p.maxK·e.Cols
// floats.
func (p *Plan) applyBlock(e *matrix.Dense, work []float64, tc *trace.Collector) {
	for i := range p.blocks {
		d := &p.blocks[i]
		householder.ApplyWY(d.rows, e.Cols, d.k, d.v, d.rows, d.y, d.rows,
			e.Data[d.rowStart:], e.Stride, work)
		tc.AddFlops(trace.KLarfb, 4*int64(d.rows)*int64(e.Cols)*int64(d.k))
	}
}

// ApplyNaive computes E := Q₂·E one reflector at a time in reverse
// generation order — the memory-bound Level-2 reference implementation the
// paper's blocked scheme replaces. It is used to validate the diamond
// decomposition and as the ablation baseline.
func ApplyNaive(res *bulge.Result, e *matrix.Dense, tc *trace.Collector) {
	if e.Rows != res.N {
		panic("backtransform: E row count mismatch")
	}
	work := make([]float64, e.Cols)
	for i := len(res.Refs) - 1; i >= 0; i-- {
		r := &res.Refs[i]
		if r.Tau == 0 {
			continue
		}
		v := make([]float64, len(r.V)+1)
		v[0] = 1
		copy(v[1:], r.V)
		sub := e.View(r.Row, 0, len(v), e.Cols)
		householder.Larf(blas.Left, len(v), e.Cols, v, 1, r.Tau, sub.Data, sub.Stride, work)
		tc.AddFlops(trace.KLarf, 4*int64(len(v))*int64(e.Cols))
	}
}

// WorkspaceBytes models the arena storage a vectors solve's Q₂ plan retains
// for an order-n chase of bandwidth b with diamond width group (≤ 0 → the
// default): the V and Y slabs. A diamond spans at most b+g−1 rows, and its
// columns are lattice slots, of which there are at most n²/(2b) + n (sweep
// s has ⌈(n−1−s)/b⌉ levels). The fused apply's worker scratch is added for
// the given worker count and the default column block.
func WorkspaceBytes(n, b, group, workers int) int64 {
	if n <= 0 || b <= 0 {
		return 0
	}
	if group <= 0 {
		group = defaultGroup(b)
	}
	n64 := int64(n)
	slots := n64*n64/int64(2*b) + n64
	floats := 2 * slots * int64(b+group-1)
	// +8: the cache-line padding of each work.WorkerSlabs slice.
	floats += int64(max(1, workers)) * (int64(max(b, group))*int64(tune.ColBlock(n, b, workers)) + 8)
	return 8 * floats
}
