// Package sbr implements successive band reduction: the band→band narrowing
// sweeps of a communication-avoiding stage 1 (Solomonik et al., PAPERS.md;
// Bischof/Lang/Sun's SBR toolbox). One Reduce call narrows a symmetric band
// matrix of bandwidth b₁ to bandwidth b₂ < b₁,  B₁ = S·B₂·Sᵀ, harvesting the
// Householder reflectors of S for the eigenvector back-transformation.
//
// The kernel walk generalizes the stage-2 bulge chase (internal/bulge) from
// its fixed b₂ = 1 to any target bandwidth:
//
//   - The sweep-starting kernel annihilates column sw below subdiagonal b₂
//     with one reflector of length ≤ b₁−b₂+1 rooted at row sw+b₂, and applies
//     it two-sidedly to the leading symmetric triangle plus the b₂−1 in-band
//     columns to its left.
//   - Each chase step applies the previous reflector from the right to the
//     off-diagonal block below it — the b₂−1 "pass-through" rows that stay
//     inside the band plus the bulge rows that spill below it — then
//     annihilates only the bulge's first column, keeping the band entry at
//     offset exactly b₁ (delayed annihilation: the rest of the bulge overlaps
//     later sweeps' bulges and is chased by them). Reflector roots therefore
//     hop b₁ rows per level: Row(sw, ℓ) = sw + b₂ + ℓ·b₁.
//   - The new reflector is applied from the left to the remaining bulge and
//     pass-through columns while they are hot in cache, then two-sidedly to
//     the next symmetric triangle.
//
// Transient bulges reach 2b₁−b₂ subdiagonals, so the matrix is kept in an
// extended band of that width. Because Row(sw, ℓ) shifts by exactly one row
// per consecutive sweep at fixed level, the reflectors satisfy the same
// diamond-lattice invariant as the stage-2 chase and the
// internal/backtransform aggregated applier consumes them unchanged.
package sbr

import (
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// emptyV marks a recorded identity reflector: the slot is filled (V non-nil)
// but the transformation is trivial. Distinct from an untouched lattice slot
// whose V is nil.
var emptyV = []float64{}

// extBand is the extended-band working storage for one narrowing sweep: the
// width-b₁ input band plus room for the transient bulges, which reach
// 2b₁−b₂ subdiagonals. Lower band layout: element (i, j), j ≤ i ≤ j+kd,
// lives at data[(i−j) + j·lda]. The kernels mirror internal/bulge's
// (Level-2, column-at-a-time) with the block geometry generalized; they are
// duplicated rather than shared so the stage-2 chase keeps its own invariant
// checks and arena keys.
type extBand struct {
	n    int
	b1   int // input bandwidth
	b2   int // target bandwidth
	kd   int // working bandwidth (≤ 2b₁−b₂)
	lda  int
	data []float64
}

func (w *extBand) init(b *matrix.SymBand, b2 int, key work.Key, ws *work.Arena) {
	kd := min(2*b.KD-b2, b.N-1)
	if kd < b.KD {
		kd = b.KD
	}
	*w = extBand{n: b.N, b1: b.KD, b2: b2, kd: kd, lda: kd + 1}
	w.data = ws.Floats(key, w.lda*b.N, true)
	for j := 0; j < b.N; j++ {
		for i := j; i <= min(b.N-1, j+b.KD); i++ {
			w.data[(i-j)+j*w.lda] = b.Data[(i-j)+j*b.LDA]
		}
	}
}

func (w *extBand) at(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if i-j > w.kd {
		return 0
	}
	return w.data[(i-j)+j*w.lda]
}

// col returns the contiguous storage of column j for rows [r0, r0+len).
// The requested rows must lie inside the extended band — a violation would
// silently alias the next column's storage, so it is checked.
func (w *extBand) col(j, r0, length int) []float64 {
	if r0 < j || r0+length-1-j > w.kd {
		panic("sbr: access outside the extended band (delayed-annihilation invariant broken)")
	}
	off := (r0 - j) + j*w.lda
	return w.data[off : off+length]
}

// larfgColumn generates the reflector annihilating all but the first entry
// of B[r0 : r0+length, c], writes the annihilated column back (beta then
// zeros), and returns the essential part (carved from slab) and tau.
func (w *extBand) larfgColumn(c, r0, length int, slab *work.Slab, tc *trace.Collector) ([]float64, float64) {
	x := w.col(c, r0, length)
	beta, tau := householder.Larfg(length, x[0], x[1:], 1)
	v := slab.Take(length - 1)
	copy(v, x[1:])
	x[0] = beta
	for i := 1; i < length; i++ {
		x[i] = 0
	}
	tc.AddFlops(trace.KOther, 3*int64(length))
	return v, tau
}

// symTwoSided applies H = I − τ·u·uᵀ (u = [1; v]) two-sidedly to the
// symmetric block starting at index r0 with the given length:
// S := H·S·H via the standard rank-2 form S −= u·wᵀ + w·uᵀ,
// w = τ·S·u − (τ²/2)(uᵀSu)·u. scratch must hold ≥ length floats.
func (w *extBand) symTwoSided(r0, length int, v []float64, tau float64, scratch []float64, tc *trace.Collector) {
	if tau == 0 || length == 0 {
		return
	}
	p := scratch[:length]
	clear(p)
	for j := 0; j < length; j++ {
		uj := 1.0
		if j > 0 {
			uj = v[j-1]
		}
		cj := w.col(r0+j, r0+j, length-j)
		p[j] += cj[0] * uj
		for i := j + 1; i < length; i++ {
			s := cj[i-j]
			ui := v[i-1]
			p[i] += s * uj
			p[j] += s * ui
		}
	}
	for i := range p {
		p[i] *= tau
	}
	dot := p[0]
	for i := 1; i < length; i++ {
		dot += v[i-1] * p[i]
	}
	alpha := -0.5 * tau * dot
	p[0] += alpha
	for i := 1; i < length; i++ {
		p[i] += alpha * v[i-1]
	}
	for j := 0; j < length; j++ {
		uj := 1.0
		if j > 0 {
			uj = v[j-1]
		}
		cj := w.col(r0+j, r0+j, length-j)
		cj[0] -= 2 * uj * p[j]
		for i := j + 1; i < length; i++ {
			ui := v[i-1]
			cj[i-j] -= ui*p[j] + uj*p[i]
		}
	}
	tc.AddFlops(trace.KSymv, 4*int64(length)*int64(length))
}

// rightUpdate applies H from the right to the block
// G = B[r0 : r0+rlen, c0 : c0+clen]:  G := G·(I − τ·u·uᵀ), u = [1; v] over
// the columns. scratch must hold ≥ rlen floats.
func (w *extBand) rightUpdate(r0, rlen, c0, clen int, v []float64, tau float64, scratch []float64, tc *trace.Collector) {
	if tau == 0 || rlen <= 0 || clen <= 0 {
		return
	}
	t := scratch[:rlen]
	clear(t)
	for j := 0; j < clen; j++ {
		uj := 1.0
		if j > 0 {
			uj = v[j-1]
		}
		cj := w.col(c0+j, r0, rlen)
		for i := 0; i < rlen; i++ {
			t[i] += cj[i] * uj
		}
	}
	for j := 0; j < clen; j++ {
		uj := tau
		if j > 0 {
			uj = tau * v[j-1]
		}
		cj := w.col(c0+j, r0, rlen)
		for i := 0; i < rlen; i++ {
			cj[i] -= t[i] * uj
		}
	}
	tc.AddFlops(trace.KGemv, 4*int64(rlen)*int64(clen))
}

// leftUpdate applies H from the left to the block
// G = B[r0 : r0+rlen, c0 : c0+clen]:  G := (I − τ·u·uᵀ)·G, u over the rows.
func (w *extBand) leftUpdate(r0, rlen, c0, clen int, v []float64, tau float64, tc *trace.Collector) {
	if tau == 0 || rlen <= 0 || clen <= 0 {
		return
	}
	for j := 0; j < clen; j++ {
		cj := w.col(c0+j, r0, rlen)
		dot := cj[0]
		for i := 1; i < rlen; i++ {
			dot += v[i-1] * cj[i]
		}
		dot *= tau
		cj[0] -= dot
		for i := 1; i < rlen; i++ {
			cj[i] -= dot * v[i-1]
		}
	}
	tc.AddFlops(trace.KGemv, 4*int64(rlen)*int64(clen))
}

// extractBand reads the narrowed width-b₂ band off the fully swept storage.
func (w *extBand) extractBand(key work.Key, ws *work.Arena) *matrix.SymBand {
	out := ws.Band(key, w.n, w.b2)
	for j := 0; j < w.n; j++ {
		for i := j; i <= min(w.n-1, j+out.KD); i++ {
			out.Data[(i-j)+j*out.LDA] = w.at(i, j)
		}
	}
	return out
}

// forEachStep walks the kernel lattice of one narrowing pass in sequential
// order: fn(sw, 0) is the sweep-starting kernel, fn(sw, lvl) for lvl ≥ 1 the
// combined right-update/annihilate/left-update chase kernel. fn returning
// false stops the walk. Sweep sw runs iff column sw has entries below
// subdiagonal b₂; step lvl runs iff the previous reflector's block has rows
// below it (even when those are pass-through rows only — the tail case
// right-updates them without generating a reflector).
func forEachStep(n, b1, b2 int, fn func(sw, lvl int) bool) {
	for sw := 0; sw <= n-b2-2; sw++ {
		if !fn(sw, 0) {
			return
		}
		for lvl := 1; ; lvl++ {
			prevStart := sw + b2 + (lvl-1)*b1
			prevLen := min(b1-b2+1, n-prevStart)
			if prevStart+prevLen >= n {
				break // previous block reached the bottom
			}
			if !fn(sw, lvl) {
				return
			}
		}
	}
}

// KeySet names the arena storage of one Reduce call. Multi-sweep pipelines
// run several reductions whose factors must coexist on one arena, so each
// sweep uses its own set (KeysFor).
type KeySet struct {
	Work    work.Key // extended-band working storage
	Band    work.Key // narrowed output band
	Refs    work.Key // reflector lattice
	Slab    work.Key // reflector essentials
	Scratch work.Key // per-worker kernel scratch
	State   work.Key // retained reducer + Factor headers
}

// KeysFor returns the conventional key set of narrowing sweep i.
func KeysFor(i int) KeySet {
	s := itoa(i)
	return KeySet{
		Work:    work.Key("sbr.work." + s),
		Band:    work.Key("sbr.band." + s),
		Refs:    work.Key("sbr.refs." + s),
		Slab:    work.Key("sbr.slab." + s),
		Scratch: work.Key("sbr.scratch." + s),
		State:   work.Key("sbr.state." + s),
	}
}

// Config controls one band→band reduction.
type Config struct {
	// B2 is the target bandwidth, clamped to ≥ 1. A B2 ≥ the input bandwidth
	// makes Reduce a pass-through (the returned Factor aliases the input band
	// and carries no reflectors).
	B2 int
	// Lookahead grades chase-step priorities within this many levels of the
	// sweep-starting kernels (0 = default depth). Priorities only reorder the
	// ready queue; the conservative block dependences keep the result bitwise
	// identical at any worker count and depth.
	Lookahead int
	// WantQ selects whether the reflector sequence is accumulated.
	WantQ bool
	// Affinity restricts scheduled kernels to a subset of workers (0 = all).
	Affinity uint64
	// Keys names the arena storage; the zero value gets KeysFor(0).
	Keys KeySet
}

// DefaultLookahead is the priority-grading depth when Config.Lookahead is 0.
const DefaultLookahead = 2

// Factor is the outcome of one narrowing sweep: the narrowed band and the
// reflectors of the orthogonal S with  input = S·Band·Sᵀ. Arena-backed —
// valid until the arena is recycled.
type Factor struct {
	N  int
	B1 int // input bandwidth
	B2 int // output bandwidth
	// Band is the narrowed band matrix (bandwidth B2).
	Band *matrix.SymBand
	// Refs holds the S reflectors in generation order, on the same
	// (sweep, level) diamond lattice as a stage-2 chase with bandwidth B1.
	// Nil when the reduction ran with WantQ false or was a pass-through.
	Refs []bulge.Reflector
}

// Result adapts the factor for internal/backtransform's aggregated applier,
// which consumes the (N, B, Refs) lattice of a bulge chase. An SBR sweep's
// reflectors live on the same lattice with B = B1.
func (f *Factor) Result() *bulge.Result {
	return &bulge.Result{N: f.N, B: f.B1, Refs: f.Refs}
}

// reducer carries the kernel state of one Reduce call: the extended working
// band, the pre-planned reflector lattice (slot (s, ℓ) is known in advance so
// recording is race-free under the scheduler), the slab the reflector
// essentials are carved from, and per-worker scratch.
type reducer struct {
	w         extBand
	keys      KeySet
	ws        *work.Arena
	tc        *trace.Collector
	refs      []bulge.Reflector
	out       []bulge.Reflector // retained Factor.Refs storage
	f         Factor            // retained Factor header
	maxLevels int
	slab      *work.Slab
	scratch   [][]float64 // per worker, ≥ b1+1 floats
	prioChase func(lvl int) int
}

func stateFor(ws *work.Arena, key work.Key) *reducer {
	if r, ok := ws.Value(key).(*reducer); ok {
		return r
	}
	r := &reducer{}
	ws.SetValue(key, r)
	return r
}

func newReducer(b *matrix.SymBand, b2 int, cfg Config, workers int, ws *work.Arena, tc *trace.Collector) *reducer {
	r := stateFor(ws, cfg.Keys.State)
	r.w.init(b, b2, cfg.Keys.Work, ws)
	n, b1 := b.N, b.KD
	maxLevels := (n-1)/b1 + 2

	// Reflector lattice, retained across solves. Stale entries must be
	// cleared: the V slices point into the recycled slab.
	refs, _ := ws.Value(cfg.Keys.Refs).([]bulge.Reflector)
	if cap(refs) < n*maxLevels {
		refs = make([]bulge.Reflector, n*maxLevels)
		ws.SetValue(cfg.Keys.Refs, refs)
	} else {
		refs = refs[:n*maxLevels]
		clear(refs)
	}

	// Exact slab capacity for every reflector essential.
	capV := 0
	forEachStep(n, b1, b2, func(sw, lvl int) bool {
		_, length := refRow(n, b1, b2, sw, lvl)
		if length >= 2 {
			capV += length - 1
		}
		return true
	})

	r.keys, r.ws, r.tc, r.refs, r.maxLevels = cfg.Keys, ws, tc, refs, maxLevels
	r.slab = ws.SlabOf(cfg.Keys.Slab, capV)
	r.scratch = ws.PerWorker(cfg.Keys.Scratch, workers, b1+1)

	// Graded look-ahead priorities, mirroring stage 1's discipline: the
	// sweep-starting kernels are the critical path (every later sweep's start
	// waits on the band they touch), so they run at panel priority; chase
	// steps within the depth window are boosted by proximity so the blocks the
	// next start needs are released first.
	depth := cfg.Lookahead
	if depth == 0 {
		depth = DefaultLookahead
	}
	r.prioChase = func(lvl int) int {
		if lvl == 0 {
			return prioStart
		}
		if boost := depth - lvl + 1; boost > 0 {
			return prioFlat + boost*64
		}
		return prioFlat
	}
	return r
}

const (
	prioStart = 1 << 13 // sweep-starting kernels (critical path)
	prioFlat  = 10      // base chase priority
)

// refRow returns the root row and block length of the reflector slot
// (sw, lvl); length < 1 means the step is a tail (pass-through rows only,
// no reflector recorded).
func refRow(n, b1, b2, sw, lvl int) (row, length int) {
	if lvl == 0 {
		r0 := sw + b2
		return r0, min(b1-b2+1, n-r0)
	}
	prevStart := sw + b2 + (lvl-1)*b1
	nextStart := prevStart + b1
	rowsEnd := min(prevStart+(b1-b2)+b1, n-1)
	return nextStart, rowsEnd - nextStart + 1
}

func (r *reducer) slot(sweep, level int) int { return sweep*r.maxLevels + level }

// startSweep annihilates column sw below subdiagonal b₂ and applies the
// reflector two-sidedly: to the b₂−1 in-band columns on its left and to the
// leading symmetric triangle.
func (r *reducer) startSweep(sw, worker int) {
	b2 := r.w.b2
	r0, len0 := refRow(r.w.n, r.w.b1, b2, sw, 0)
	v, tau := r.w.larfgColumn(sw, r0, len0, r.slab, r.tc)
	r.refs[r.slot(sw, 0)] = bulge.Reflector{Sweep: sw, Level: 0, Row: r0, V: v, Tau: tau}
	r.w.leftUpdate(r0, len0, sw+1, b2-1, v, tau, r.tc)
	r.w.symTwoSided(r0, len0, v, tau, r.scratch[worker], r.tc)
}

// chaseStep right-updates the block below the previous reflector — the b₂−1
// pass-through rows still inside the band plus the bulge rows that spilled
// below it — then annihilates the bulge's first column (keeping the band
// entry at offset exactly b₁) and applies the new reflector from the left
// and two-sidedly.
func (r *reducer) chaseStep(sw, lvl, worker int) {
	n, b1, b2 := r.w.n, r.w.b1, r.w.b2
	prevStart := sw + b2 + (lvl-1)*b1
	prevLen := b1 - b2 + 1 // full, by the walk invariant
	prevEnd := prevStart + prevLen
	nextStart, nextLen := refRow(n, b1, b2, sw, lvl)
	rowsEnd := min(prevEnd-1+b1, n-1)

	prev := &r.refs[r.slot(sw, lvl-1)]
	r.w.rightUpdate(prevEnd, rowsEnd-prevEnd+1, prevStart, prevLen, prev.V, prev.Tau, r.scratch[worker], r.tc)
	if nextLen < 1 {
		return // tail: only pass-through rows, nothing spilled below the band
	}
	var v []float64
	var tau float64
	if nextLen >= 2 {
		v, tau = r.w.larfgColumn(prevStart, nextStart, nextLen, r.slab, r.tc)
	} else {
		v, tau = emptyV, 0
	}
	r.refs[r.slot(sw, lvl)] = bulge.Reflector{Sweep: sw, Level: lvl, Row: nextStart, V: v, Tau: tau}
	if tau != 0 {
		// Remaining bulge columns and pass-through columns in one block.
		r.w.leftUpdate(nextStart, nextLen, prevStart+1, nextStart-prevStart-1, v, tau, r.tc)
		r.w.symTwoSided(nextStart, nextLen, v, tau, r.scratch[worker], r.tc)
	}
}

// deps returns the conservative access list of kernel (sw, lvl): one RW
// resource per b₁-aligned row block its footprint spans, which serializes
// exactly the kernels that can overlap — in submission order, making the
// scheduled execution bitwise identical to the sequential one.
func (r *reducer) deps(sw, lvl int) []sched.Dep {
	n, b1, b2 := r.w.n, r.w.b1, r.w.b2
	var lo, hi int
	if lvl == 0 {
		r0, len0 := refRow(n, b1, b2, sw, 0)
		lo, hi = sw/b1, (r0+len0-1)/b1
	} else {
		prevStart := sw + b2 + (lvl-1)*b1
		rowsEnd := min(prevStart+(b1-b2)+b1, n-1)
		lo, hi = prevStart/b1, rowsEnd/b1
	}
	deps := make([]sched.Dep, 0, hi-lo+1)
	for g := lo; g <= hi; g++ {
		deps = append(deps, sched.RW(g))
	}
	return deps
}

// runSeq executes the kernels in sequential order on the calling goroutine,
// checking for cancellation once per sweep.
func (r *reducer) runSeq(job *sched.Job) {
	forEachStep(r.w.n, r.w.b1, r.w.b2, func(sw, lvl int) bool {
		if lvl == 0 {
			if job.Canceled() {
				return false
			}
			r.startSweep(sw, 0)
		} else {
			r.chaseStep(sw, lvl, 0)
		}
		return true
	})
}

// schedule submits one task per kernel; the scheduler reproduces the
// sequential order through the conservative block dependences, while the
// graded priorities steer the ready queue toward the sweep-start chain.
func (r *reducer) schedule(job *sched.Job, affinity uint64) {
	forEachStep(r.w.n, r.w.b1, r.w.b2, func(sw, lvl int) bool {
		var name string
		var run func(int)
		if lvl == 0 {
			name = kname("SBRCEU", sw, 0)
			run = func(w int) { r.startSweep(sw, w) }
		} else {
			name = kname("SBRREL", sw, lvl)
			run = func(w int) { r.chaseStep(sw, lvl, w) }
		}
		job.Submit(sched.Task{
			Name:     name,
			Priority: r.prioChase(lvl),
			Affinity: affinity,
			Deps:     r.deps(sw, lvl),
			Run:      run,
		})
		return true
	})
}

// finish extracts the narrowed band and compacts the reflector lattice.
func (r *reducer) finish(wantQ bool) *Factor {
	f := &r.f
	*f = Factor{N: r.w.n, B1: r.w.b1, B2: r.w.b2}
	f.Band = r.w.extractBand(r.keys.Band, r.ws)
	if !wantQ {
		return f
	}
	nref := 0
	for i := range r.refs {
		if r.refs[i].V != nil {
			nref++
		}
	}
	if cap(r.out) < nref {
		r.out = make([]bulge.Reflector, 0, nref)
	}
	out := r.out[:0]
	for i := range r.refs {
		if r.refs[i].V != nil {
			out = append(out, r.refs[i])
		}
	}
	r.out = out
	f.Refs = out
	return f
}

// Reduce narrows the symmetric band matrix b (not modified) to bandwidth
// cfg.B2. A nil (or inline) job runs the kernels sequentially — the
// reference execution the scheduled one must match bit-for-bit — while a
// scheduler-backed job runs them as tasks whose dependences reproduce the
// sequential order exactly. If the job is canceled the Factor's contents are
// unspecified and the caller must check job.Err. ws may be nil; when non-nil
// the Factor borrows arena storage and is only valid until the arena is
// recycled. tc may be nil.
func Reduce(b *matrix.SymBand, cfg Config, job *sched.Job, ws *work.Arena, tc *trace.Collector) *Factor {
	if cfg.Keys == (KeySet{}) {
		cfg.Keys = KeysFor(0)
	}
	b2 := max(1, cfg.B2)
	if b.N == 0 || b2 >= b.KD {
		// Nothing to narrow: pass the input through untouched.
		r := stateFor(ws, cfg.Keys.State)
		r.f = Factor{N: b.N, B1: b.KD, B2: b.KD, Band: b}
		return &r.f
	}
	r := newReducer(b, b2, cfg, job.Workers(), ws, tc)
	if job.Parallel() {
		r.schedule(job, cfg.Affinity)
		job.Wait() // error, if any, surfaces through job.Err at the caller
	} else {
		r.runSeq(job)
	}
	return r.finish(cfg.WantQ)
}

// kname builds a task name without fmt to keep submission cheap.
func kname(kind string, s, l int) string {
	return kind + "#" + itoa(s) + "." + itoa(l)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	p := len(buf)
	for v > 0 {
		p--
		buf[p] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[p:])
}
