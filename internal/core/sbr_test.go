package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/testmat"
)

// sbrOptions are the multi-sweep plans the driver-level gates run: one
// single-narrowing plan and one two-level cascade, both small enough that the
// full matrix set stays fast under -race.
var sbrPlans = []struct {
	label    string
	wideBand int
	sweeps   []int
}{
	{"16->4", 16, []int{4}},
	{"24->8->4", 24, []int{8, 4}},
}

// TestBuildPlanSBR pins the multi-sweep phase sequence: each narrowing sweep
// is its own resumable phase between stage 1 and stage 2, the kill-switch
// and an empty sweep list both collapse to the classic plan, and non-sense
// sweep lists (non-decreasing, wider than the band) are filtered rather than
// scheduled.
func TestBuildPlanSBR(t *testing.T) {
	p := BuildPlan(&Options{Vectors: true, WideBand: 24, BandSweeps: []int{8, 4}})
	wantNames := []string{"stage1", "sbr_sweep0", "sbr_sweep1", "stage2", "eig_t", "back_trans"}
	if len(p) != len(wantNames) {
		t.Fatalf("plan has %d phases, want %d", len(p), len(wantNames))
	}
	for i, ph := range p {
		if ph.Name() != wantNames[i] {
			t.Fatalf("phase %d: name %q, want %q", i, ph.Name(), wantNames[i])
		}
	}
	for _, tc := range []struct {
		label string
		o     Options
		want  int
	}{
		{"kill-switch", Options{Vectors: true, WideBand: 24, BandSweeps: []int{8}, DisableMultiSweep: true}, 4},
		{"no sweeps", Options{Vectors: true, WideBand: 24}, 4},
		{"non-narrowing filtered", Options{Vectors: true, NB: 8, BandSweeps: []int{8, 16}}, 4},
		{"partial filter", Options{Vectors: true, WideBand: 16, BandSweeps: []int{32, 8, 8, 4}}, 6},
	} {
		if p := BuildPlan(&tc.o); len(p) != tc.want {
			names := make([]string, len(p))
			for i, ph := range p {
				names[i] = ph.Name()
			}
			t.Errorf("%s: plan %v, want %d phases", tc.label, names, tc.want)
		}
	}
}

// TestSBRMultiSweepSolve is the correctness gate: every multi-sweep plan must
// pass the planted-spectrum, residual and orthogonality budgets with and
// without a scheduler.
func TestSBRMultiSweepSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec := testmat.GeometricSpectrum(56, 0.1, 50)
	a := testmat.WithSpectrum(rng, spec)
	want := append([]float64(nil), spec...)
	sort.Float64s(want)
	for _, plan := range sbrPlans {
		for _, workers := range []int{0, 3} {
			o := Options{
				Method: MethodDC, Vectors: true, Workers: workers,
				WideBand: plan.wideBand, BandSweeps: plan.sweeps,
			}
			res, err := SyevTwoStage(context.Background(), a, o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", plan.label, workers, err)
			}
			checkEigen(t, plan.label, a, res, want)
		}
	}
}

// TestSBRMultiSweepDeterministic is the determinism half of the acceptance
// gate: each multi-sweep plan must produce bitwise identical values and
// vectors at every worker count — the conservative block dependences
// serialize conflicting kernels in submission order, so only the schedule,
// never the arithmetic, may change.
func TestSBRMultiSweepDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testmat.WithSpectrum(rng, testmat.UniformSpectrum(52, -5, 5))
	for _, plan := range sbrPlans {
		var want *Result
		for _, workers := range []int{1, 2, 4, 7} {
			o := Options{
				Method: MethodDC, Vectors: true, Workers: workers,
				WideBand: plan.wideBand, BandSweeps: plan.sweeps,
			}
			res, err := SyevTwoStage(context.Background(), a, o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", plan.label, workers, err)
			}
			if want == nil {
				want = res
				continue
			}
			requireSameResult(t, plan.label, res, want)
		}
	}
}

// TestSBRKillSwitchBitwise is the other half of the acceptance gate: with
// DisableMultiSweep set, a solve configured with a full SBR plan must be
// bitwise identical to one that never heard of multi-sweep, at every worker
// count — the kill-switch restores the exact single-sweep factorization,
// WideBand included (it only applies when sweeps run).
func TestSBRKillSwitchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testmat.WithSpectrum(rng, testmat.UniformSpectrum(48, -3, 9))
	for _, workers := range []int{1, 2, 4, 7} {
		base := Options{Method: MethodDC, Vectors: true, Workers: workers, NB: 8}
		want, err := SyevTwoStage(context.Background(), a, base)
		if err != nil {
			t.Fatal(err)
		}
		killed := base
		killed.WideBand = 24
		killed.BandSweeps = []int{8, 4}
		killed.DisableMultiSweep = true
		got, err := SyevTwoStage(context.Background(), a, killed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "kill-switch", got, want)
	}
}

// TestSBRSuspendResume extends the resumability gate to the per-sweep phases:
// suspending after any prefix of a multi-sweep plan — including between two
// narrowing sweeps — and resuming must reproduce the straight-through solve
// bitwise.
func TestSBRSuspendResume(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := testmat.WithSpectrum(rng, testmat.UniformSpectrum(44, -2, 6))
	o := Options{Vectors: true, Workers: 2, WideBand: 16, BandSweeps: []int{8, 4}}
	want, err := SyevTwoStage(context.Background(), a, o)
	if err != nil {
		t.Fatal(err)
	}
	full := BuildPlan(&o)
	for k := 0; k <= len(full); k++ {
		st, plan, err := NewSolveState(context.Background(), a, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range plan[:k] {
			if err := ph.Run(context.Background(), st); err != nil {
				t.Fatalf("k=%d phase %s: %v", k, ph.Name(), err)
			}
		}
		for _, ph := range plan[k:] {
			if err := ph.Run(context.Background(), st); err != nil {
				t.Fatalf("k=%d resume phase %s: %v", k, ph.Name(), err)
			}
		}
		requireSameResult(t, "sbr suspend point", st.Result(), want)
		st.Close()
	}
}
