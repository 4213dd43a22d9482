package main

import (
	"reflect"
	"testing"
)

func TestDenseInputIsPureFunctionOfSeed(t *testing.T) {
	a, b, c := denseInput(7, 32), denseInput(7, 32), denseInput(8, 32)
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatal("same seed gave different dense inputs")
	}
	if reflect.DeepEqual(a.Data, c.Data) {
		t.Fatal("different seeds gave the same dense input")
	}
}

func TestJobSequenceIsPureFunctionOfSeed(t *testing.T) {
	a, b, c := jobSequence(3, 500, serviceMix), jobSequence(3, 500, serviceMix), jobSequence(4, 500, serviceMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same sequence")
	}
	if !reflect.DeepEqual(a[:100], jobSequence(3, 100, serviceMix)) {
		t.Fatal("a shorter sequence is not a prefix of a longer one")
	}
}

// The mix is stratified: every full block holds exact shares, so seeds
// differ in order and matrices, not in the work offered.
func TestJobMixShares(t *testing.T) {
	jobs := jobSequence(5, 3000, serviceMix)
	full := len(jobs)
	sizes := make(map[int]int)
	kinds := make(map[kind]int)
	fams := make(map[family]int)
	for _, j := range jobs[:full] {
		sizes[j.N]++
		kinds[j.Kind]++
		fams[j.Fam]++
	}
	per := func(k int) int { return full / 100 * k }
	for c, n := range serviceMix.Sizes {
		if sizes[n] != per(5*serviceMix.SizeCounts[c]) {
			t.Errorf("n=%d: %d of %d jobs, want %d", n, sizes[n], full, per(5*serviceMix.SizeCounts[c]))
		}
	}
	if kinds[kindVectors] != per(70) || kinds[kindValues] != per(20) || kinds[kindRange] != per(10) {
		t.Errorf("kinds %v over %d jobs, want 70/20/10%%", kinds, full)
	}
	if d := fams[famRandom] - fams[famLaplacian]; d < -per(2) || d > per(2) {
		t.Errorf("families %v are not half and half", fams)
	}
}

func TestServiceInputIsPureFunctionOfSeed(t *testing.T) {
	k := inputKey{N: 24, Fam: famLaplacian, Index: 1}
	a := serviceInput(1, k, serviceMix)
	b := serviceInput(1, k, serviceMix)
	c := serviceInput(2, k, serviceMix)
	if !reflect.DeepEqual(a.Data, b.Data) || reflect.DeepEqual(a.Data, c.Data) {
		t.Fatal("pooled inputs are not a pure function of the seed")
	}
}
