package bench

import (
	"strings"
	"testing"
)

// The experiments are exercised here at tiny sizes: the goal is that every
// harness entry point runs, produces rows, and embeds its paper-comparison
// notes; timing assertions belong to the recorded runs in EXPERIMENTS.md.

func nonEmpty(t *testing.T, tab *Table, wantRows int) {
	t.Helper()
	if len(tab.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want at least %d", tab.Name, len(tab.Rows), wantRows)
	}
	s := tab.String()
	if !strings.Contains(s, tab.Name) {
		t.Fatalf("%s: render missing title", tab.Name)
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Headers) {
			t.Fatalf("%s: row width %d != header width %d", tab.Name, len(r), len(tab.Headers))
		}
	}
}

func TestTable1Smoke(t *testing.T)   { nonEmpty(t, Table1(96), 3) }
func TestTable2Smoke(t *testing.T)   { nonEmpty(t, Table2(), 3) }
func TestTable3Smoke(t *testing.T)   { nonEmpty(t, Table3(), 3) }
func TestModelSmoke(t *testing.T)    { nonEmpty(t, ModelTable([]int{128, 256}), 2) }
func TestFig1aSmoke(t *testing.T)    { nonEmpty(t, Figure1('a', []int{64, 96}, 0), 2) }
func TestFig1bSmoke(t *testing.T)    { nonEmpty(t, Figure1('b', []int{64, 96}, 0), 2) }
func TestFig1vSmoke(t *testing.T)    { nonEmpty(t, Figure1ValuesOnly([]int{64}), 1) }
func TestFig2Smoke(t *testing.T)     { nonEmpty(t, Figure2(48, 6), 5) }
func TestFig3Smoke(t *testing.T)     { nonEmpty(t, Figure3(64, 8, 8, 2), 5) }
func TestFig5Smoke(t *testing.T)     { nonEmpty(t, Figure5(96, []int{8, 16}, 0), 2) }
func TestFractionSmoke(t *testing.T) { nonEmpty(t, Fraction(96, 0), 3) }
func TestVerifySmoke(t *testing.T)   { nonEmpty(t, VerifyTable(48, 0), 4) }

func TestFig4AllVariantsSmoke(t *testing.T) {
	for _, v := range []byte{'a', 'b', 'c', 'd'} {
		tab := Figure4(v, []int{64, 96}, 0)
		nonEmpty(t, tab, 2)
		// Speedup column parses as a positive number.
		for _, r := range tab.Rows {
			if !strings.Contains(r[3], ".") {
				t.Fatalf("fig4%c: speedup cell %q malformed", v, r[3])
			}
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	nonEmpty(t, AblationGroup(96, 8, []int{2, 4}), 3)
	nonEmpty(t, AblationStage2Cores(96, 8, []int{2}), 3)
	nonEmpty(t, AblationStage1Sched(96, 16, []int{2}), 2)
	st := Stage2ParallelCheck(64, 8, []int{1, 2})
	nonEmpty(t, st, 2)
	for _, r := range st.Rows {
		if r[1] != "true" {
			t.Fatalf("stage-2 parallel check failed: %v", r)
		}
	}
}

func TestFigure4UnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown variant")
		}
	}()
	Figure4('z', []int{16}, 0)
}

func TestSVDComparisonSmoke(t *testing.T) {
	tab := SVDComparison([]int{256, 1024})
	nonEmpty(t, tab, 2)
	// The SVD/EVD cubic ratio column must be exactly 2.00.
	for _, r := range tab.Rows {
		if r[3] != "2.00" {
			t.Fatalf("cubic ratio %q != 2.00", r[3])
		}
	}
}
