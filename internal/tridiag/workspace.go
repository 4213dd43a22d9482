package tridiag

import (
	"sort"
	"sync"

	"repro/internal/matrix"
)

// Work is a retained scratch pool for the tridiagonal eigensolvers. The
// divide & conquer recursion allocates a deterministic population of
// vectors and matrices per problem size; pooling them (plus the sort and
// permutation scratch) makes repeated solves of the same size allocation-
// free in steady state, which is what the reusable Solver's workspace arena
// needs from this layer.
//
// A Work serves one solve at a time (the D&C recursion is sequential). A
// nil *Work is valid everywhere and falls back to plain allocation, so the
// public one-shot entry points need no conditionals.
type Work struct {
	vecs map[int][][]float64 // free float buffers, keyed by exact length
	mats *matPool            // free matrices (shared by a WorkSet's members)
	ints map[int][][]int     // free int buffers, keyed by exact length

	// Per-merge scratch, reused across the sequential merge nodes.
	perm     []int
	sidx     []int
	bases    []int
	deflated []bool
	outs     []dcOut
	ents     []dcEnt
	stebz    []stebzIval // bisection interval work-stack

	permSort permSorter
	outSort  outSorter
	entSort  entSorter
}

// NewWork returns an empty pool.
func NewWork() *Work {
	return &Work{
		vecs: make(map[int][][]float64),
		mats: &matPool{},
		ints: make(map[int][][]int),
	}
}

// matPool holds the free D&C matrices. The merge matrices are n×k and k×k
// with k the non-deflated count, which differs from problem to problem, so
// pooling by exact size would retain one buffer per size ever seen; instead
// a request takes the smallest free buffer that holds it without wasting
// more than half of it. One pool serves every member of a WorkSet, under a
// mutex, because merge tasks free their children's matrices on whichever
// worker runs them: with per-member pools the buffers drift toward some
// members and the rest allocate afresh on every solve. Retention is thereby
// bounded by the solve's peak live set rather than growing solve by solve.
type matPool struct {
	mu   sync.Mutex
	free []*matrix.Dense
}

// get returns a free matrix whose backing array holds need floats (nil if
// none fits), resliced to exactly need.
func (p *matPool) get(need int) *matrix.Dense {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, m := range p.free {
		if c := cap(m.Data); c >= need && c <= 2*need && (best < 0 || c < cap(p.free[best].Data)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	m := p.free[best]
	last := len(p.free) - 1
	p.free[best], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
	m.Data = m.Data[:need]
	return m
}

func (p *matPool) put(m *matrix.Dense) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

func (p *matPool) bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b int64
	for _, m := range p.free {
		b += int64(cap(m.Data)) * 8
	}
	return b
}

// WorkspaceBytes reports the pool's retained float storage (for workspace-
// budget accounting; see work.WorkspaceSized). The D&C matrices dominate;
// the int/bool merge scratch is ignored.
func (w *Work) WorkspaceBytes() int64 {
	if w == nil {
		return 0
	}
	return w.vecBytes() + w.mats.bytes()
}

// vecBytes is the retained vector storage of this pool alone.
func (w *Work) vecBytes() int64 {
	var b int64
	for _, l := range w.vecs {
		for _, v := range l {
			b += int64(cap(v)) * 8
		}
	}
	return b
}

// vec returns a zeroed float buffer of exactly length n.
func (w *Work) vec(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	if l := w.vecs[n]; len(l) > 0 {
		buf := l[len(l)-1]
		w.vecs[n] = l[:len(l)-1]
		clear(buf)
		return buf
	}
	return make([]float64, n)
}

// putVec returns a buffer obtained from vec to the pool. Never put a slice
// that aliases live data (e.g. a sub-slice of a caller's array).
func (w *Work) putVec(b []float64) {
	if w == nil || cap(b) == 0 {
		return
	}
	w.vecs[len(b)] = append(w.vecs[len(b)], b)
}

// mat returns a zeroed r×c matrix (Stride == r), reusing a pooled header
// and backing array when one fits (see matPool).
func (w *Work) mat(r, c int) *matrix.Dense {
	if w == nil || r*c == 0 {
		return matrix.NewDense(r, c)
	}
	if m := w.mats.get(r * c); m != nil {
		m.Rows, m.Cols, m.Stride = r, c, r
		clear(m.Data)
		return m
	}
	return matrix.NewDense(r, c)
}

// putMat returns a matrix obtained from mat to the pool.
func (w *Work) putMat(m *matrix.Dense) {
	if w == nil || m == nil || len(m.Data) == 0 {
		return
	}
	w.mats.put(m)
}

// intVec returns a zeroed int buffer of exactly length n. Unlike the
// singleton permBuf/sidxBuf scratch, these buffers may be held across task
// boundaries (the D&C merge's secular-column placement map lives from the
// pre-task to the post-task), so they are pooled like vec/mat.
func (w *Work) intVec(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	if w.ints == nil {
		w.ints = make(map[int][][]int)
	}
	if l := w.ints[n]; len(l) > 0 {
		buf := l[len(l)-1]
		w.ints[n] = l[:len(l)-1]
		clear(buf)
		return buf
	}
	return make([]int, n)
}

// putIntVec returns a buffer obtained from intVec to the pool.
func (w *Work) putIntVec(b []int) {
	if w == nil || cap(b) == 0 {
		return
	}
	if w.ints == nil {
		w.ints = make(map[int][][]int)
	}
	w.ints[len(b)] = append(w.ints[len(b)], b)
}

// stebzStackBuf returns the (empty) bisection work-stack; putStebzStack
// hands it back so its grown capacity is retained across solves.
func (w *Work) stebzStackBuf() []stebzIval {
	if w == nil {
		return make([]stebzIval, 0, 64)
	}
	if w.stebz == nil {
		w.stebz = make([]stebzIval, 0, 64)
	}
	return w.stebz[:0]
}

func (w *Work) putStebzStack(s []stebzIval) {
	if w != nil {
		w.stebz = s
	}
}

// PutVec hands a vector returned by a solver (e.g. StedcWork's eigenvalues)
// back to the pool once the caller has copied what it needs.
func (w *Work) PutVec(b []float64) { w.putVec(b) }

// PutMat hands a matrix returned by a solver (e.g. StedcWork's eigenvector
// basis) back to the pool once the caller has copied what it needs.
func (w *Work) PutMat(m *matrix.Dense) { w.putMat(m) }

// eye returns the n×n identity from the pool.
func (w *Work) eye(n int) *matrix.Dense {
	m := w.mat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i+i*m.Stride] = 1
	}
	return m
}

// permBuf, sidxBuf, basesBuf, deflatedBuf, outsBuf and entsBuf return
// per-merge scratch with capacity n; the three int buffers are distinct
// because they are live simultaneously within one merge. Appending up to n
// elements to the [:0] variants never reallocates.

func (w *Work) permBuf(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	if cap(w.perm) < n {
		w.perm = make([]int, n)
	}
	return w.perm[:n]
}

func (w *Work) sidxBuf(n int) []int {
	if w == nil {
		return make([]int, 0, n)
	}
	if cap(w.sidx) < n {
		w.sidx = make([]int, n)
	}
	return w.sidx[:0]
}

func (w *Work) basesBuf(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	if cap(w.bases) < n {
		w.bases = make([]int, n)
	}
	return w.bases[:n]
}

func (w *Work) deflatedBuf(n int) []bool {
	if w == nil {
		return make([]bool, n)
	}
	if cap(w.deflated) < n {
		w.deflated = make([]bool, n)
	}
	b := w.deflated[:n]
	clear(b)
	return b
}

func (w *Work) outsBuf(n int) []dcOut {
	if w == nil {
		return make([]dcOut, 0, n)
	}
	if cap(w.outs) < n {
		w.outs = make([]dcOut, n)
	}
	return w.outs[:0]
}

func (w *Work) entsBuf(n int) []dcEnt {
	if w == nil {
		return make([]dcEnt, 0, n)
	}
	if cap(w.ents) < n {
		w.ents = make([]dcEnt, n)
	}
	return w.ents[:0]
}

// sortPerm sorts perm so that key[perm[i]] ascends. With a pool the sorter
// lives in the Work, so sort.Sort sees a pointer and nothing escapes.
func (w *Work) sortPerm(perm []int, key []float64) {
	if w == nil {
		sort.Slice(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
		return
	}
	w.permSort.perm, w.permSort.key = perm, key
	sort.Sort(&w.permSort)
	w.permSort.perm, w.permSort.key = nil, nil
}

// sortOuts sorts merge output columns by eigenvalue.
func (w *Work) sortOuts(outs []dcOut) {
	if w == nil {
		sort.Slice(outs, func(a, b int) bool { return outs[a].val < outs[b].val })
		return
	}
	w.outSort.s = outs
	sort.Sort(&w.outSort)
	w.outSort.s = nil
}

// sortEnts sorts decoupled-merge entries by eigenvalue.
func (w *Work) sortEnts(ents []dcEnt) {
	if w == nil {
		sort.Slice(ents, func(a, b int) bool { return ents[a].val < ents[b].val })
		return
	}
	w.entSort.s = ents
	sort.Sort(&w.entSort)
	w.entSort.s = nil
}

// WorkSet is the parallel-solve extension of Work: one retained pool per
// scheduler worker plus one for the submitting goroutine (which builds the
// task DAG — and runs the whole solve in inline mode — concurrently with
// worker 0, so it must not share worker 0's pool). Task bodies draw scratch
// from Worker(id) with the id the scheduler hands them; everything outside
// a task body uses Seq().
//
// Vector buffers may migrate between member pools: a merge task recycles
// its children's buffers into the pool of whichever worker ran it. That is
// safe because each pool is only ever touched by the single goroutine
// currently running a task for that worker (or, for Seq, by the submitting
// goroutine outside the submit/Wait window), and the scheduler's lock
// orders a buffer's last write before its next reuse. The matrices, which
// dominate the footprint, live in one mutex-guarded pool shared by all
// members (see matPool).
//
// A nil *WorkSet is valid and falls back to plain allocation, like a nil
// *Work.
type WorkSet struct {
	works []*Work  // [0, workers) per scheduler worker; last entry = Seq
	mats  *matPool // the matrix pool every member shares
	run   dcRun    // retained D&C DAG state (nodes, latch), reused per solve
}

// NewWorkSet returns a pool set serving the given scheduler width.
func NewWorkSet(workers int) *WorkSet {
	s := &WorkSet{}
	s.Grow(workers)
	return s
}

// Grow ensures the set serves at least the given scheduler width. Existing
// pools (and their retained buffers) are kept; the Seq pool stays last.
func (s *WorkSet) Grow(workers int) {
	if s == nil || workers < 1 {
		return
	}
	if s.mats == nil {
		s.mats = &matPool{}
	}
	for len(s.works) < workers+1 {
		w := NewWork()
		w.mats = s.mats
		s.works = append(s.works, w)
	}
}

// Worker returns the pool owned by the given scheduler worker.
func (s *WorkSet) Worker(i int) *Work {
	if s == nil {
		return nil
	}
	return s.works[i]
}

// Seq returns the submitting goroutine's pool; it also serves the whole
// solve on the inline (sequential) path.
func (s *WorkSet) Seq() *Work {
	if s == nil {
		return nil
	}
	return s.works[len(s.works)-1]
}

// PutVec hands a solver-returned vector back to the set (the Seq pool).
func (s *WorkSet) PutVec(b []float64) { s.Seq().PutVec(b) }

// PutMat hands a solver-returned matrix back to the set (the Seq pool).
func (s *WorkSet) PutMat(m *matrix.Dense) { s.Seq().PutMat(m) }

// WorkspaceBytes sums the retained float storage of every member pool (see
// work.WorkspaceSized).
func (s *WorkSet) WorkspaceBytes() int64 {
	if s == nil {
		return 0
	}
	b := s.mats.bytes()
	for _, w := range s.works {
		b += w.vecBytes()
	}
	return b
}

type permSorter struct {
	perm []int
	key  []float64
}

func (p *permSorter) Len() int           { return len(p.perm) }
func (p *permSorter) Less(i, j int) bool { return p.key[p.perm[i]] < p.key[p.perm[j]] }
func (p *permSorter) Swap(i, j int)      { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] }

type outSorter struct{ s []dcOut }

func (o *outSorter) Len() int           { return len(o.s) }
func (o *outSorter) Less(i, j int) bool { return o.s[i].val < o.s[j].val }
func (o *outSorter) Swap(i, j int)      { o.s[i], o.s[j] = o.s[j], o.s[i] }

type entSorter struct{ s []dcEnt }

func (e *entSorter) Len() int           { return len(e.s) }
func (e *entSorter) Less(i, j int) bool { return e.s[i].val < e.s[j].val }
func (e *entSorter) Swap(i, j int)      { e.s[i], e.s[j] = e.s[j], e.s[i] }

// WorkspaceBytes models what a WorkSet retains after an order-n
// eigenvector solve. The divide & conquer root merge holds at most five
// n²-sized matrices at once — the sorted basis, the output basis, the n×k
// survivor basis and GEMM destination, and the k×k secular matrix — and on
// the parallel path the merges of the two subtrees below it add at most one
// n² more; matPool's fit rule lets a reused buffer be up to twice its
// request, so the shared pool settles at no more than 12·n² floats. The
// vector pools add O(n) per member. Bisection with inverse iteration and
// implicit QL/QR need at most one n² matrix and stay within the same bound.
func WorkspaceBytes(n, workers int) int64 {
	if n <= 0 {
		return 0
	}
	n64 := int64(n)
	return 8 * (12*n64*n64 + 16*n64*int64(max(1, workers)+1))
}
