package sbr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/work"
)

func randBand(rng *rand.Rand, n, kd int) *matrix.SymBand {
	b := matrix.NewSymBand(n, kd)
	for j := 0; j < n; j++ {
		for i := j; i <= min(n-1, j+b.KD); i++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	return b
}

// applyS computes S·X in place, S = H₁·H₂⋯ in generation order.
func applyS(refs []bulge.Reflector, x *matrix.Dense) {
	for k := len(refs) - 1; k >= 0; k-- {
		r := refs[k]
		if r.Tau == 0 {
			continue
		}
		l := len(r.V) + 1
		for c := 0; c < x.Cols; c++ {
			dot := x.At(r.Row, c)
			for i := 1; i < l; i++ {
				dot += r.V[i-1] * x.At(r.Row+i, c)
			}
			dot *= r.Tau
			x.Set(r.Row, c, x.At(r.Row, c)-dot)
			for i := 1; i < l; i++ {
				x.Set(r.Row+i, c, x.At(r.Row+i, c)-dot*r.V[i-1])
			}
		}
	}
}

func identity(n int) *matrix.Dense {
	d := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	return d
}

// frobDiff returns ‖X − Y‖_F / max(1, ‖X‖_F).
func frobDiff(x, y *matrix.Dense) float64 {
	var num, den float64
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			d := x.At(i, j) - y.At(i, j)
			num += d * d
			den += x.At(i, j) * x.At(i, j)
		}
	}
	return math.Sqrt(num) / math.Max(1, math.Sqrt(den))
}

// mulSym returns S·B·Sᵀ for dense S and symmetric dense B.
func mulSym(s, b *matrix.Dense) *matrix.Dense {
	n := s.Rows
	sb := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += s.At(i, k) * b.At(k, j)
			}
			sb.Set(i, j, acc)
		}
	}
	out := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += sb.At(i, k) * s.At(j, k)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// TestSBRReduceSequential checks, for a grid of (n, b1, b2), that Reduce
// produces a genuinely narrowed band and an orthogonal S with
// A = S·B₂·Sᵀ to working accuracy.
func TestSBRReduceSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ n, b1, b2 int }{
		{30, 6, 2}, {40, 8, 3}, {37, 12, 5}, {25, 9, 8},
		{40, 10, 1}, {16, 15, 4}, {9, 5, 2}, {5, 4, 3},
	}
	for _, tc := range cases {
		b := randBand(rng, tc.n, tc.b1)
		a := b.ToDense()
		f := Reduce(b, Config{B2: tc.b2, WantQ: true}, nil, nil, nil)
		if f.Band.KD != tc.b2 {
			t.Fatalf("n=%d b1=%d b2=%d: output bandwidth %d", tc.n, tc.b1, tc.b2, f.Band.KD)
		}
		// The band output must be exactly banded (the extraction cannot have
		// truncated anything: the working storage outside b2 must be zero).
		s := identity(tc.n)
		applyS(f.Refs, s)
		// Orthogonality of S.
		ss := mulSym(s, identity(tc.n))
		if d := frobDiff(identity(tc.n), ss); d > 1e-13*float64(tc.n) {
			t.Fatalf("n=%d b1=%d b2=%d: S not orthogonal: %g", tc.n, tc.b1, tc.b2, d)
		}
		// Reconstruction A = S·B₂·Sᵀ.
		rec := mulSym(s, f.Band.ToDense())
		if d := frobDiff(a, rec); d > 1e-13*float64(tc.n) {
			t.Fatalf("n=%d b1=%d b2=%d: reconstruction error %g", tc.n, tc.b1, tc.b2, d)
		}
	}
}

// TestSBRLeavesNoFill checks that after the sweep the working band holds no
// entry below subdiagonal b₂ — i.e. the narrowing is real, not a truncation
// by extractBand.
func TestSBRLeavesNoFill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, b1, b2 := 40, 8, 3
	b := randBand(rng, n, b1)
	rr := newReducer(b, b2, Config{B2: b2, WantQ: true, Keys: KeysFor(0)}, 1, work.NewArena(), nil)
	rr.runSeq(nil)
	for j := 0; j < n; j++ {
		for i := j + b2 + 1; i <= min(n-1, j+rr.w.kd); i++ {
			if v := rr.w.at(i, j); v != 0 {
				t.Fatalf("fill left at (%d,%d): %g", i, j, v)
			}
		}
	}
}

// TestSBRChainToTridiagonal narrows in two sweeps and chases the result,
// verifying the composed factorization A = S₁·S₂·Q₂·T·Q₂ᵀ·S₂ᵀ·S₁ᵀ.
func TestSBRChainToTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 45
	b := randBand(rng, n, 16)
	a := b.ToDense()
	f1 := Reduce(b, Config{B2: 8, WantQ: true, Keys: KeysFor(0)}, nil, nil, nil)
	f2 := Reduce(f1.Band, Config{B2: 3, WantQ: true, Keys: KeysFor(1)}, nil, nil, nil)
	res := bulge.Chase(f2.Band, nil, 0, true, nil, nil)

	q := identity(n)
	applyS(res.Refs, q)
	applyS(f2.Refs, q)
	applyS(f1.Refs, q)
	rec := mulSym(q, res.T.ToDense())
	if d := frobDiff(a, rec); d > 1e-13*float64(n) {
		t.Fatalf("composed reconstruction error %g", d)
	}
}

// TestSBRScheduledBitwise checks that the scheduled execution is bitwise
// identical to the sequential reference at several worker counts and
// lookahead depths.
func TestSBRScheduledBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, b1, b2 := 48, 9, 3
	b := randBand(rng, n, b1)
	ref := Reduce(b, Config{B2: b2, WantQ: true}, nil, nil, nil)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, cfg := range []Config{
			{B2: b2, WantQ: true},
			{B2: b2, WantQ: true, Lookahead: 5},
			{B2: b2, WantQ: true, Lookahead: 1},
		} {
			s := sched.New(workers)
			got := Reduce(b, cfg, s.NewJob(nil), nil, nil)
			s.Shutdown()
			if len(got.Refs) != len(ref.Refs) {
				t.Fatalf("workers=%d: reflector count %d vs %d", workers, len(got.Refs), len(ref.Refs))
			}
			for i := range ref.Refs {
				if ref.Refs[i].Tau != got.Refs[i].Tau || ref.Refs[i].Row != got.Refs[i].Row {
					t.Fatalf("workers=%d: reflector %d differs", workers, i)
				}
				for k := range ref.Refs[i].V {
					if ref.Refs[i].V[k] != got.Refs[i].V[k] {
						t.Fatalf("workers=%d: reflector %d V[%d] differs", workers, i, k)
					}
				}
			}
			for i := range ref.Band.Data {
				if ref.Band.Data[i] != got.Band.Data[i] {
					t.Fatalf("workers=%d: band data %d differs", workers, i)
				}
			}
		}
	}
}

// TestSBRArenaReuse runs two different problems through one arena and checks
// the second result against a fresh computation (stale lattice slots and
// slab storage must not leak through).
func TestSBRArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := work.NewArena()
	big := randBand(rng, 50, 10)
	Reduce(big, Config{B2: 4, WantQ: true}, nil, ws, nil)
	small := randBand(rng, 30, 7)
	got := Reduce(small, Config{B2: 3, WantQ: true}, nil, ws, nil)
	ref := Reduce(small, Config{B2: 3, WantQ: true}, nil, nil, nil)
	if len(got.Refs) != len(ref.Refs) {
		t.Fatalf("reflector count %d vs %d", len(got.Refs), len(ref.Refs))
	}
	for i := range ref.Refs {
		if ref.Refs[i].Tau != got.Refs[i].Tau || ref.Refs[i].Row != got.Refs[i].Row {
			t.Fatalf("reflector %d differs after arena reuse", i)
		}
	}
	for i := range ref.Band.Data {
		if ref.Band.Data[i] != got.Band.Data[i] {
			t.Fatalf("band data %d differs after arena reuse", i)
		}
	}
}

// TestSBRPassThrough: a target bandwidth ≥ the input is a no-op that aliases
// the input band.
func TestSBRPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := randBand(rng, 20, 4)
	f := Reduce(b, Config{B2: 4, WantQ: true}, nil, nil, nil)
	if f.Band != b || f.Refs != nil {
		t.Fatal("pass-through must alias the input and carry no reflectors")
	}
	if f.B1 != 4 || f.B2 != 4 {
		t.Fatalf("pass-through bandwidths %d→%d", f.B1, f.B2)
	}
}
