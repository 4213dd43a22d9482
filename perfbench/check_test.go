package main

import (
	"math"
	"testing"

	eigen "repro"
	"repro/internal/testmat"
)

// The Dgemm-based residual and orthogonality measures are testmat's, up to
// rounding (well under one unit of n·ε).
func TestChecksMatchTestmat(t *testing.T) {
	a := denseInput(1, 96)
	s := eigen.NewSolver(&eigen.Options{DisableTuning: true})
	defer s.Close()
	res, err := s.EigRange(toEigen(a), 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	out := fromResult(res.Values, res.Vectors, nil)
	if d := math.Abs(residual(a, out.values, out.vecs) - testmat.Residual(a, out.values, out.vecs)); d > 1 {
		t.Errorf("residual differs from testmat.Residual by %g", d)
	}
	if d := math.Abs(orthoError(out.vecs) - testmat.OrthoError(out.vecs)); d > 1 {
		t.Errorf("orthoError differs from testmat.OrthoError by %g", d)
	}
	if q := check(a, out, 1, 40); q.err != nil {
		t.Fatalf("a correct output failed its check: %v", q.err)
	}
	out.vecs.Data[5] += 1e-6
	if q := check(a, out, 1, 40); q.err == nil {
		t.Fatal("a perturbed eigenvector passed its check")
	}
}

func TestValuesOnlyCheck(t *testing.T) {
	a := denseInput(2, 64)
	s := eigen.NewSolver(&eigen.Options{DisableTuning: true})
	defer s.Close()
	vals, err := s.EigValues(toEigen(a))
	if err != nil {
		t.Fatal(err)
	}
	if q := check(a, output{values: vals}, 0, 0); q.err != nil {
		t.Fatalf("correct eigenvalues failed their check: %v", q.err)
	}
	vals[10] += 1e-9
	if q := check(a, output{values: vals}, 0, 0); q.err == nil {
		t.Fatal("a perturbed eigenvalue passed the trace/Frobenius check")
	}
	vals[10], vals[11] = vals[11], vals[10]
	if q := check(a, output{values: vals}, 0, 0); q.err == nil {
		t.Fatal("out-of-order eigenvalues passed the check")
	}
}
