package eigen

// One benchmark per table and figure of the paper's evaluation. Each bench
// delegates to the shared harness in internal/bench and logs the resulting
// table; `go test -bench=. -benchmem` therefore regenerates the entire
// evaluation (at laptop-scale sizes — see EXPERIMENTS.md for the recorded
// runs and the paper-vs-measured comparison). cmd/eigbench runs the same
// experiments standalone with configurable sizes.

import (
	"testing"

	"repro/internal/bench"
)

// benchSizes keeps the in-test sweeps quick; cmd/eigbench uses larger ones.
var benchSizes = []int{128, 256}

func BenchmarkTable1_MethodComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table1(192)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable2_ReductionKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table2()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3_MachineParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table3()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure1a_OneStageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure1('a', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
			b.Log("\n" + bench.Figure1ValuesOnly(benchSizes).String())
		}
	}
}

func BenchmarkFigure1b_TwoStageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure1('b', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure2_BulgeKernelStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure2(96, 8)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure3_BacktransformStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure3(192, 16, 16, 4)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure4a_SpeedupDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4('a', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure4b_SpeedupBI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4('b', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure4c_SpeedupTRD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4('c', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure4d_Speedup20pct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4('d', benchSizes, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure5_TileSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure5(256, []int{4, 8, 16, 32, 64}, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkModel_Eqs4to10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.ModelTable([]int{256, 512, 1024, 2048, 4096, 24000})
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkSection41_EVDvsSVDModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SVDComparison([]int{512, 1024, 4096, 24000})
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFraction_PartialSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fraction(256, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationGroupWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationGroup(256, 16, []int{1, 2, 4, 8, 16, 32})
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationStage2Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationStage2Cores(256, 16, []int{1, 2, 4})
		if i == 0 {
			b.Log("\n" + t.String())
			b.Log("\n" + bench.Stage2ParallelCheck(128, 8, []int{1, 2, 4}).String())
		}
	}
}

func BenchmarkAblationStage1Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationStage1Sched(256, 32, []int{1, 2, 4})
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkVerification_MatrixFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.VerifyTable(128, 0)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkEig_* are conventional per-op benchmarks of the public API for
// profiling (ns/op, allocs/op) rather than paper reproduction.
func BenchmarkEig_TwoStage256(b *testing.B) { benchEig(b, TwoStage, 256) }
func BenchmarkEig_OneStage256(b *testing.B) { benchEig(b, OneStage, 256) }

func benchEig(b *testing.B, alg Algorithm, n int) {
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a.SetSym(i, j, float64((i*37+j*17)%100)/100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eig(a, &Options{Algorithm: alg}); err != nil {
			b.Fatal(err)
		}
	}
}
