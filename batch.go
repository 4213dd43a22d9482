package eigen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultBatchFanout is the matrix order at or above which a batch item is
// decomposed into per-tile tasks on the shared scheduler. Below it the whole
// solve runs as a single scheduler task: for small problems the per-tile DAG
// has too little work per task to amortize dependence tracking, and running
// several whole solves concurrently on different workers parallelizes
// better.
const DefaultBatchFanout = 512

// BatchItem describes one independent eigenproblem in a SolveBatch call.
// The zero value of the optional fields requests a full eigendecomposition
// with solver-allocated vectors, matching Solver.Eig.
type BatchItem struct {
	// A is the symmetric input matrix.
	A *Matrix
	// Dst, when non-nil, receives the eigenvectors in place (as in EigTo).
	// It must be n×k where k is the number of requested pairs (n for the
	// full spectrum), and must not be combined with ValuesOnly.
	Dst *Matrix
	// ValuesOnly skips the eigenvector computation.
	ValuesOnly bool
	// IL, IU select eigenpairs il..iu (1-based, ascending, inclusive) as in
	// EigRange; both zero means the full spectrum.
	IL, IU int
}

// BatchResult is the outcome of one BatchItem. Exactly one of Err or the
// value fields is meaningful: on error Values and Vectors are nil.
type BatchResult struct {
	// Values are the computed eigenvalues in ascending order.
	Values []float64
	// Vectors holds the matching eigenvectors (nil for ValuesOnly items; the
	// Dst matrix when one was supplied).
	Vectors *Matrix
	// Err is the item's error: validation errors (*NotFiniteError,
	// *RangeError, shape errors), ErrNoConvergence, the context error, or
	// ErrClosed. An item's failure never affects the other items.
	Err error
	// Trace holds the item's own phase timings and flop counts when the
	// Solver was built with a Collector (which also receives the merged
	// totals); nil otherwise.
	Trace *trace.Collector
}

// SolveBatch solves many independent eigenproblems concurrently over the
// Solver's shared scheduler and workspace pool, returning one BatchResult
// per item (index-aligned with items). Results are bitwise identical to
// solving each item alone on the same Solver.
//
// Admission control bounds the resource footprint: at most
// Options.BatchConcurrency items (default: the scheduler width) are in
// flight, and when Options.MemoryBudget is set, items wait until their
// estimated workspace footprint fits under it. The gate is per-Solver, not
// per-call: concurrent SolveBatch calls (for example one per network job in
// a serving layer) share the same slots and budget, so the Solver's
// footprint is bounded no matter how many callers feed it. Small problems
// are submitted
// as one whole-solve task each on a per-item labeled job (so traces
// attribute work per item); items with order ≥ Options.BatchFanout fan out
// into the usual per-tile task DAG. On a sequential Solver (Workers ≤ 1)
// items run one at a time on the callers' goroutines.
//
// SolveBatch never fails as a whole: per-item errors (invalid shapes,
// non-finite entries, non-convergence, cancellation) land in the matching
// BatchResult.Err and leave the Solver and every other item untouched.
// Calling SolveBatch from inside one of this Solver's own scheduler tasks
// (e.g. from code running under another solve on the same Solver) is
// detected and refused with ErrReentrantBatch per item — the work it would
// submit could only run on workers the caller already occupies.
//
// On a parallel Solver the batch runs through the pipelined executor: each
// item advances phase by phase through the two-stage plan (see
// internal/core's SolveState), so the compute-bound stage 1 of the next
// item overlaps the memory-bound bulge chase / tridiagonal stage of the
// current one — the paper's core restriction applied between solves.
// Options.PipelineDepth bounds the overlap window and
// Options.DisablePipeline restores the opaque whole-solve behavior; results
// are bitwise identical in every mode.
func (s *Solver) SolveBatch(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	s.mu.Lock()
	closed, scheduler := s.closed, s.sched
	s.mu.Unlock()
	if closed {
		for i := range out {
			out[i].Err = ErrClosed
		}
		return out
	}
	if scheduler != nil && scheduler.OnWorkerGoroutine() {
		// Re-entrant call from inside a task of this very scheduler: the
		// batch would block waiting for workers that are occupied by the
		// caller — deadlock on a saturated pool. Refuse every item with a
		// typed error instead.
		for i := range out {
			out[i].Err = ErrReentrantBatch
		}
		return out
	}

	// Admission runs against the Solver's persistent gate (BatchConcurrency
	// slots + MemoryBudget bytes, shared by every concurrent SolveBatch
	// call). The pipeline window is per-call: it bounds how many of *this*
	// call's items may hold a SolveState (and its workspace reservation) at
	// once. It narrows the effective admission, never widens it.
	gate := s.gate
	pipelined := scheduler != nil && !s.opts.DisablePipeline && s.opts.Algorithm != OneStage
	var window *batchGate
	if pipelined {
		depth := s.opts.PipelineDepth
		if depth <= 0 || depth > scheduler.Workers() {
			depth = scheduler.Workers()
		}
		window = newBatchGate(depth, 0)
	}
	if ctx != nil {
		// Wake gate waiters when the context dies so they can return its
		// error instead of blocking on slots that canceled items still hold.
		stop := context.AfterFunc(ctx, func() {
			gate.broadcast()
			if window != nil {
				window.broadcast()
			}
		})
		defer stop()
	}
	fanout := s.opts.BatchFanout
	if fanout <= 0 {
		fanout = DefaultBatchFanout
	}

	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.batchSolve(ctx, i, &items[i], scheduler, gate, window, fanout, pipelined)
		}(i)
	}
	wg.Wait()
	return out
}

// batchSolve validates, admits, and runs one batch item.
func (s *Solver) batchSolve(ctx context.Context, idx int, it *BatchItem, scheduler *sched.Scheduler, gate, window *batchGate, fanout int, pipelined bool) BatchResult {
	if err := validateBatchItem(it); err != nil {
		return BatchResult{Err: err}
	}
	n := it.A.r
	vectors := !it.ValuesOnly

	// Per-item collector: the item's own trace is reported in the result and
	// merged into the Solver-level collector, so concurrent items do not
	// interleave their phase timings.
	var tc *trace.Collector
	if s.opts.Collector != nil {
		tc = trace.New()
	}

	cost := s.EstimateWorkspaceBytes(n, vectors)
	waitStart := time.Now()
	if window != nil {
		// The per-call pipeline window is taken before the shared gate so an
		// item never pins a Solver-wide slot while waiting on its own call's
		// window.
		if err := window.acquire(ctx, 0); err != nil {
			return BatchResult{Err: err}
		}
		defer window.release(0)
	}
	if err := gate.acquire(ctx, cost); err != nil {
		return BatchResult{Err: err}
	}
	tc.AddPhase(trace.PhaseBatchWait, time.Since(waitStart))
	defer gate.release(cost)

	var res *Result
	var err error
	switch {
	case pipelined:
		res, err = s.pipedSolve(ctx, idx, it, scheduler, tc, fanout)
	case scheduler != nil && n < fanout:
		// Whole-solve-as-one-task: one labeled job, one task, inline solve
		// inside the task body. Distinct items occupy distinct workers.
		job := scheduler.NewJobNamed(ctx, fmt.Sprintf("batch[%d] n=%d", idx, n))
		job.Submit(sched.Task{
			Name: fmt.Sprintf("SOLVE[%d]", idx),
			Run: func(int) {
				res, err = s.runSolve(ctx, nil, tc, it.A, it.Dst, vectors, it.IL, it.IU)
			},
		})
		werr := job.Wait() // also orders the closure writes before our reads
		if res == nil && err == nil {
			// The task body never ran: the job was canceled or the
			// scheduler shut down before execution.
			err = werr
			if errors.Is(err, sched.ErrStopped) {
				err = ErrClosed
			}
			if err == nil {
				err = context.Canceled
			}
		}
	default:
		// Large problems fan out into the per-tile DAG (scheduler non-nil),
		// or the Solver is sequential and the solve runs inline here.
		res, err = s.runSolve(ctx, scheduler, tc, it.A, it.Dst, vectors, it.IL, it.IU)
	}

	r := BatchResult{Err: err}
	if err == nil {
		r.Values = res.Values
		r.Vectors = res.Vectors
	}
	if tc != nil {
		s.opts.Collector.Merge(tc)
		r.Trace = tc
	}
	return r
}

// pipelinePhasePriority is the per-phase step of the pipeline's drain bias:
// a task of phase k carries k·pipelinePhasePriority on top of its intrinsic
// priority, so the late phases of in-flight items outrank the stage-1 tasks
// of freshly admitted ones and items drain — releasing their workspace
// reservation — before new items grab workers. The step must dominate every
// intrinsic priority; the largest is stage 1's look-ahead panel priority at
// 2^13 (see internal/band), comfortably below this 2^16 step.
const pipelinePhasePriority = 1 << 16

// pipelineMemMask is the core-restriction mask the pipeline puts on
// memory-bound whole-phase tasks: Options.Stage2Workers when set, else half
// the pool (rounded up). Zero (no restriction) on pools too narrow to split
// — with every phase pinned to the same single worker there would be no
// cross-item overlap left to steer.
func pipelineMemMask(workers, stage2Workers int) uint64 {
	if workers <= 1 {
		return 0
	}
	w := stage2Workers
	if w <= 0 {
		w = (workers + 1) / 2
	}
	if w >= workers {
		return 0
	}
	return sched.AffinityMask(w)
}

// pipedSolve runs one batch item through the phase plan, phase by phase, on
// the shared scheduler. Two shapes, mirroring the whole-solve/fan-out split:
//
//   - Below the fan-out threshold each phase runs as one scheduler task
//     (inline phase body) on the item's labeled job. Memory-bound phases
//     (bulge chase, eig_t) carry the stage-2 core-restriction mask, so the
//     compute-bound stage-1 tasks of other in-flight items saturate the
//     remaining workers; later phases carry a higher priority so items near
//     completion drain first.
//   - At or above the threshold the phases fan out into their per-tile task
//     DAGs; a JobFactory labels each phase's job per item and applies the
//     same drain bias, and the memory-bound stages fall back to a half-pool
//     core restriction when the caller didn't set one.
//
// Either way the kernels execute in the exact sequential-equivalent order
// the plan defines, so results are bitwise identical to a solo solve.
func (s *Solver) pipedSolve(ctx context.Context, idx int, it *BatchItem, scheduler *sched.Scheduler, tc *trace.Collector, fanout int) (*Result, error) {
	n := it.A.r
	vectors := !it.ValuesOnly
	fanned := n >= fanout

	var sub *sched.Scheduler // scheduler the phase *bodies* run on
	if fanned {
		sub = scheduler
	}
	prep, err := s.prepare(sub, tc, it.A, it.Dst, vectors, it.IL, it.IU)
	if err != nil {
		return nil, err
	}
	defer s.pool.Put(prep.ws)
	if fanned {
		// Steer the memory-bound stages off the full pool unless the caller
		// chose a restriction; affinity moves tasks between workers, never
		// changes results.
		workers := scheduler.Workers()
		if prep.co.Stage2Workers <= 0 && workers > 1 {
			prep.co.Stage2Workers = (workers + 1) / 2
		}
		if prep.co.TridiagWorkers <= 0 && workers > 1 {
			prep.co.TridiagWorkers = (workers + 1) / 2
		}
	}

	st, plan, err := core.NewSolveState(ctx, prep.ad, prep.co)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	var cres *core.Result
	if fanned {
		// Per-phase labeled jobs with the drain bias; phase bodies fan out
		// into their per-tile DAGs on the shared scheduler.
		bias := make(map[string]int, len(plan))
		for i, ph := range plan {
			bias[ph.Name()] = i * pipelinePhasePriority
		}
		st.JobFactory = func(ph core.Phase, jctx context.Context) *sched.Job {
			return scheduler.NewJobNamed(jctx, fmt.Sprintf("batch[%d] %s", idx, ph.Name())).
				SetBias(bias[ph.Name()])
		}
		for _, ph := range plan {
			if err := ph.Run(ctx, st); err != nil {
				return s.finish(prep, it.Dst, nil, err)
			}
		}
		cres = st.Result()
		return s.finish(prep, it.Dst, cres, nil)
	}

	// Phase-as-one-task: the item's phases run inline inside one scheduler
	// task each, on a single labeled job. The job orders them (each Wait
	// precedes the next Submit), the per-phase Affinity/Priority do the
	// steering, and the SolveState carries the artifacts across tasks.
	job := scheduler.NewJobNamed(ctx, fmt.Sprintf("batch[%d] n=%d", idx, n))
	memMask := pipelineMemMask(scheduler.Workers(), s.opts.Stage2Workers)
	for pi, ph := range plan {
		var perr error
		ran := false
		var aff uint64
		if ph.Class() == core.MemoryBound {
			aff = memMask
		}
		ph := ph
		job.Submit(sched.Task{
			Name:     fmt.Sprintf("%s[%d]", ph.Name(), idx),
			Priority: pi * pipelinePhasePriority,
			Affinity: aff,
			Run: func(int) {
				ran = true
				perr = ph.Run(ctx, st)
			},
		})
		werr := job.Wait() // also orders the closure writes before our reads
		if !ran && perr == nil {
			// The task body never ran: the job was canceled or the
			// scheduler shut down before execution.
			perr = werr
			if perr == nil {
				perr = context.Canceled
			}
		}
		if perr != nil {
			return s.finish(prep, it.Dst, nil, perr)
		}
	}
	cres = st.Result()
	return s.finish(prep, it.Dst, cres, nil)
}

// validateBatchItem rejects malformed items before any work is admitted.
func validateBatchItem(it *BatchItem) error {
	if it.A == nil {
		return fmt.Errorf("eigen: batch item has a nil matrix")
	}
	if it.A.r != it.A.c {
		return fmt.Errorf("eigen: matrix must be square, got %d×%d", it.A.r, it.A.c)
	}
	// The range check is independent of how results are returned: it used to
	// live inside the Dst branch, so a values-only or nil-Dst item with an
	// invalid range passed validation, burned an admission slot, and only
	// failed later inside the pipeline. Every item fails fast here instead.
	n := it.A.r
	k := n
	if it.IL != 0 || it.IU != 0 {
		if it.IL < 1 || it.IU > n || it.IL > it.IU {
			return &RangeError{IL: it.IL, IU: it.IU, N: n}
		}
		k = it.IU - it.IL + 1
	}
	if it.Dst != nil {
		if it.ValuesOnly {
			return fmt.Errorf("eigen: batch item sets both Dst and ValuesOnly")
		}
		if it.Dst.r != n || it.Dst.c != k {
			return fmt.Errorf("eigen: batch destination is %d×%d, want %d×%d", it.Dst.r, it.Dst.c, n, k)
		}
	}
	return nil
}

// batchGate is the admission controller for SolveBatch: a counted slot pool
// plus an optional byte budget. A solve needs one slot and (when a budget is
// set) its estimated workspace bytes; costs above the budget are clamped to
// it, so oversized problems run alone rather than deadlocking. One instance
// lives on each Solver (shared by every SolveBatch call, see NewSolver);
// SolveBatch additionally builds slot-only instances as per-call pipeline
// windows.
type batchGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	slots  int
	budget int64 // 0 = unlimited
	avail  int64 // remaining bytes under the budget
}

func newBatchGate(slots int, budget int64) *batchGate {
	g := &batchGate{slots: slots, budget: budget, avail: budget}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot (and budget headroom) is available or ctx is
// done.
func (g *batchGate) acquire(ctx context.Context, cost int64) error {
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if g.slots > 0 && (g.budget == 0 || g.avail >= cost) {
			g.slots--
			if g.budget > 0 {
				g.avail -= cost
			}
			return nil
		}
		g.cond.Wait()
	}
}

// release returns a slot and budget bytes taken by acquire.
func (g *batchGate) release(cost int64) {
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	g.slots++
	if g.budget > 0 {
		g.avail += cost
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// broadcast wakes all acquire waiters (used on context cancellation).
func (g *batchGate) broadcast() {
	g.mu.Lock()
	g.mu.Unlock() //nolint:staticcheck // empty critical section orders the wakeup
	g.cond.Broadcast()
}
