package eigen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/testmat"
)

// scaleBudget is the residual/orthogonality budget of the scaled-input
// tests, in the units of testmat.Residual and testmat.OrthoError (n·ε·‖A‖_F
// and n·ε) — the same 200 the core driver tests allow.
const scaleBudget = 200

// scaledInputs are finite matrices at the edges of the float64 range: a
// random matrix scaled by 10^±307 and 2^1020 / 2^-1013; one of largest entry
// ~2^-1000 whose entries far from the diagonal are subnormal; and graded
// matrices D·R·D, their entries falling by 2^200 from the top left corner,
// placed at 2^1000 and at 2^-850.
func scaledInputs(n int) map[string]*Matrix {
	rng := rand.New(rand.NewSource(61))
	base := randSymMatrix(rng, n)
	out := map[string]*Matrix{}
	mul := func(name string, f func(i, j int, v float64) float64) {
		m := NewMatrix(n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				m.data[i+j*n] = f(i, j, base.At(i, j))
			}
		}
		out[name] = m
	}
	mul("1e307", func(_, _ int, v float64) float64 { return v * 1e307 })
	mul("1e-307", func(_, _ int, v float64) float64 { return v * 1e-307 })
	mul("2^1020", func(_, _ int, v float64) float64 { return math.Ldexp(v, 1020) })
	mul("2^-1013", func(_, _ int, v float64) float64 { return math.Ldexp(v, -1013) })
	mul("subnormal", func(i, j int, v float64) float64 {
		if abs(i-j) > n/4 {
			return math.Ldexp(v, -1060)
		}
		return math.Ldexp(v, -1002)
	})
	grade := func(i int) int { return -100 * i / (n - 1) }
	mul("graded-2^1000", func(i, j int, v float64) float64 { return math.Ldexp(v, 1000+grade(i)+grade(j)) })
	mul("graded-2^-850", func(i, j int, v float64) float64 { return math.Ldexp(v, -850+grade(i)+grade(j)) })
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// rescaled returns sent·2^-e with e the binary exponent of max|sent|: a
// matrix of order-1 norm holding exactly the values the solver received
// (entries of sent are at least 2^-1074, and every rescale here either
// scales up or keeps the result far above the subnormal range).
func rescaled(sent *Matrix) (*Matrix, int) {
	var amax float64
	for _, v := range sent.data {
		amax = max(amax, math.Abs(v))
	}
	_, e := math.Frexp(amax)
	ref := NewMatrix(sent.r)
	for i, v := range sent.data {
		ref.data[i] = math.Ldexp(v, -e)
	}
	return ref, e
}

// TestScaledInputsSolve is the regression gate for finite but badly scaled
// inputs: through both algorithms, all three tridiagonal methods, with and
// without vectors, every solve succeeds, and the eigenpairs scaled back by
// the same power of two meet the residual and orthogonality budgets on the
// exactly rescaled matrix (values-only solves: the spectrum of its solve).
func TestScaledInputsSolve(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 24
	}
	for name, sent := range scaledInputs(n) {
		orig := append([]float64(nil), sent.data...)
		ref, e := rescaled(sent)
		refD := ref.dense()
		for _, alg := range []Algorithm{TwoStage, OneStage} {
			for _, m := range []Method{DivideAndConquer, BisectionInverseIteration, QRIteration} {
				label := fmt.Sprintf("%s alg=%d method=%d", name, alg, m)
				opts := &Options{Algorithm: alg, Method: m, NB: 8}
				res, err := Eig(sent, opts)
				if err != nil {
					t.Fatalf("%s: Eig: %v", label, err)
				}
				vals := make([]float64, len(res.Values))
				for i, v := range res.Values {
					vals[i] = math.Ldexp(v, -e)
				}
				z := res.Vectors.dense()
				if r := testmat.Residual(refD, vals, z); r > scaleBudget {
					t.Fatalf("%s: residual %.1f nε", label, r)
				}
				if o := testmat.OrthoError(z); o > scaleBudget {
					t.Fatalf("%s: orthogonality %.1f nε", label, o)
				}

				got, err := EigValues(sent, opts)
				if err != nil {
					t.Fatalf("%s: EigValues: %v", label, err)
				}
				want, err := EigValues(ref, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					got[i] = math.Ldexp(v, -e)
				}
				if s := testmat.SpectrumError(got, want); s > scaleBudget {
					t.Fatalf("%s: values-only spectrum error %.1f nε", label, s)
				}
			}
		}
		for i, v := range sent.data {
			if math.Float64bits(v) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: the caller's matrix was modified", name)
			}
		}
	}
}

// TestScaledInputsBatch: the scaling sits on the path batch (and so service)
// solves share with solo ones — pipelined and whole-solve batch items of
// badly scaled inputs succeed and equal the solo solve bitwise.
func TestScaledInputsBatch(t *testing.T) {
	in := scaledInputs(24)
	var items []BatchItem
	for _, name := range []string{"2^1020", "2^-1013", "subnormal"} {
		items = append(items, BatchItem{A: in[name]}, BatchItem{A: in[name], ValuesOnly: true})
	}
	for _, disable := range []bool{false, true} {
		s := NewSolver(&Options{Workers: 2, NB: 8, DisablePipeline: disable})
		for i, r := range s.SolveBatch(context.Background(), items) {
			if r.Err != nil {
				t.Fatalf("pipeline disabled=%v item %d: %v", disable, i, r.Err)
			}
			if items[i].ValuesOnly {
				want, err := s.EigValues(items[i].A)
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(r.Values, want) {
					t.Fatalf("pipeline disabled=%v item %d: values differ from the solo solve", disable, i)
				}
				continue
			}
			want, err := s.Eig(items[i].A)
			if err != nil {
				t.Fatal(err)
			}
			if !bitwiseEqual(r.Values, want.Values) || !bitwiseEqual(r.Vectors.data, want.Vectors.data) {
				t.Fatalf("pipeline disabled=%v item %d: eigenpairs differ from the solo solve", disable, i)
			}
		}
		s.Close()
	}
}

// TestInputScaleRange pins the scaling decision: inputs whose largest entry
// lies in [2^-485, 2^485] are not scaled (so their solves are bitwise what
// they were), and the rest are brought to a largest entry in [1/2, 1).
func TestInputScaleRange(t *testing.T) {
	for _, tc := range []struct {
		amax float64
		want int
	}{
		{0, 0},
		{1, 0},
		{0x1p-485, 0},
		{0x1p485, 0},
		{math.Nextafter(0x1p485, math.Inf(1)), -486},
		{math.Nextafter(0x1p-485, 0), 485},
		{0x1p-1074, 1073},
		{math.MaxFloat64, -1024},
		{math.Inf(1), 0},
		{math.NaN(), 0},
	} {
		k := inputScale(tc.amax)
		if k != tc.want {
			t.Fatalf("inputScale(%g) = %d, want %d", tc.amax, k, tc.want)
		}
		if s := math.Ldexp(tc.amax, k); k != 0 && (s < 0.5 || s >= 1) {
			t.Fatalf("inputScale(%g): scaled max %g outside [1/2, 1)", tc.amax, s)
		}
	}
}
