package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/householder"
)

// probes times direct blas.Dgemm and householder.Larfb calls at the operand
// shapes each phase issues for an order-n solve with the default tile size,
// and sets each phase's rate as a fraction of the Dgemm rate at its shapes.
// A phase runs `workers` single-threaded kernels side by side, so its
// ceiling is workers × the one-call rate.
func probes(rep *report, sec map[string]float64, fl map[string]int64, workers, n int) {
	nb := band.DefaultNB
	cb := core.DefaultColBlock(n, nb, workers)
	kb := min(nb, n) // a block reflector of an order-n problem has at most n columns
	rng := rand.New(rand.NewSource(1))
	par := blas.Parallelism()

	s1 := gemmRate(rng, nb, nb, nb)
	rep.set("blas.dgemm_gflops.stage1", s1, "Dgemm %d×%d×%d (stage-1 tile), blas.Parallelism %d", nb, nb, nb, par)
	bt := gemmRate(rng, n, cb, kb)
	rep.set("blas.dgemm_gflops.backtrans", bt, "Dgemm %d×%d×%d (n × column block × nb), blas.Parallelism %d", n, cb, kb, par)
	sq := gemmRate(rng, 512, 512, 512)
	rep.set("blas.dgemm_gflops.sq512", sq, "Dgemm 512×512×512, blas.Parallelism %d", par)
	rep.set("householder.larfb_gflops.stage1", larfbRate(rng, 2*nb, nb, nb),
		"Larfb left, transposed, m=%d n=%d k=%d (two stacked tiles), nominal 4mnk flops", 2*nb, nb, nb)
	rep.set("householder.larfb_gflops.backtrans", larfbRate(rng, n, cb, kb),
		"Larfb left, transposed, m=%d n=%d k=%d (n × column block × nb), nominal 4mnk flops", n, cb, kb)

	frac := func(layer string, probe float64, shape string) {
		if sec[layer] <= 0 {
			return
		}
		g := float64(fl[layer]) / sec[layer] / 1e9
		rep.set(layer+".dgemm_frac", g/(float64(workers)*probe),
			"%s.gflops %.4g / (%d workers × Dgemm %s at %.4g GF/s)", layer, g, workers, shape, probe)
	}
	frac("band", s1, fmt.Sprintf("%d×%d×%d", nb, nb, nb))
	frac("backtransform", bt, fmt.Sprintf("%d×%d×%d", n, cb, kb))
}

// measure returns the median rate, in GF/s, of five ≥40 ms batches of fn.
func measure(flops float64, fn func()) float64 {
	fn()
	var rates []float64
	for range 5 {
		reps := 0
		t0 := time.Now()
		for reps == 0 || time.Since(t0) < 40*time.Millisecond {
			fn()
			reps++
		}
		rates = append(rates, flops*float64(reps)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

func randSlice(rng *rand.Rand, n int, scale float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = (2*rng.Float64() - 1) * scale
	}
	return x
}

func gemmRate(rng *rand.Rand, m, n, k int) float64 {
	a := randSlice(rng, m*k, 1)
	b := randSlice(rng, k*n, 1/float64(k))
	c := randSlice(rng, m*n, 1)
	return measure(2*float64(m)*float64(n)*float64(k), func() {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, m, b, k, 0, c, m)
	})
}

// larfbRate applies an exact block reflector (orthogonal, so repeated
// application keeps C bounded) of k reflectors to an m×n matrix.
func larfbRate(rng *rand.Rand, m, n, k int) float64 {
	v := randSlice(rng, m*k, 1)
	tau := make([]float64, k)
	for i := range k {
		vv := 1.0
		for r := i + 1; r < m; r++ {
			vv += v[r+i*m] * v[r+i*m]
		}
		tau[i] = 2 / vv
	}
	t := make([]float64, k*k)
	householder.Larft(m, k, v, m, tau, t, k)
	c := randSlice(rng, m*n, 1)
	work := make([]float64, k*max(m, n))
	return measure(4*float64(m)*float64(n)*float64(k), func() {
		householder.Larfb(blas.Left, blas.Trans, m, n, k, v, m, t, k, c, m, work)
	})
}
