// Package tune centralizes the small performance heuristics that more than
// one substrate package must agree on. It is a leaf package (no internal
// imports) so that internal/core, internal/band and internal/backtransform
// can all share one default without import cycles.
package tune

// colBlockFloor is the narrowest eigenvector column block worth scheduling:
// below this the Level-3 kernels degenerate toward Level 2 and task overhead
// dominates.
const colBlockFloor = 32

// colBlockMin is the hard lower bound (degenerate problems aside, a block is
// never empty).
const colBlockMin = 1

// blocksPerWorker is the target task surplus of the back-transformation:
// enough blocks per worker that the dynamic scheduler can load-balance the
// tail, few enough that each block still amortizes the full Q₂/Q₁ operator
// stream it applies.
const blocksPerWorker = 4

// colBlockBase is the preferred column-block width. Each block streams the
// whole Q₂/Q₁ operator set through two GEMMs per block reflector, so a
// wider block amortizes the packing of V and Y over more columns, until
// too few blocks are left to balance the workers' tails. The record
// (eigbench -exp ablate-colblock, n=2048, nb=48, 2 workers, seven runs;
// DESIGN.md §8) has 128 ahead of the former base 64 in five of the seven
// runs and 32 behind both in every run, by 5–17 %.
const colBlockBase = 128

// ColBlock picks the eigenvector column-block width shared by the Q₂ and Q₁
// appliers (and the fused single-pass back-transformation): cols is the
// number of eigenvector columns being updated, nb the stage-1 tile size /
// bandwidth, workers the executing pool width. Sequential runs get
// max(colBlockBase, nb); parallel runs shrink the block until every worker
// owns at least blocksPerWorker blocks, but never below the Level-3 floor.
func ColBlock(cols, nb, workers int) int {
	cb := colBlockBase
	if nb > cb {
		cb = nb
	}
	if workers > 1 && cols > 0 {
		if per := (cols + blocksPerWorker*workers - 1) / (blocksPerWorker * workers); per < cb {
			cb = per
		}
		if cb < colBlockFloor {
			cb = colBlockFloor
		}
	}
	if cols > 0 && cb > cols {
		cb = cols
	}
	if cb < colBlockMin {
		cb = colBlockMin
	}
	return cb
}
