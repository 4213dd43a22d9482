package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	eigen "repro"
	"repro/internal/matrix"
	"repro/internal/testmat"
)

// Every input of every workload is a pure function of (workload parameters,
// seed): the program under test only ever sees the generated matrices.

// seeded returns a generator whose stream is determined by the seed and the
// given labels, so distinct inputs of one run draw from independent streams.
func seeded(seed int64, labels ...any) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, l := range labels {
		fmt.Fprintf(h, "/%v", l)
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// denseInput is the seeded random symmetric matrix of the dense workloads:
// N(0,1) entries, so a semicircle spectrum on which divide and conquer
// deflates little.
func denseInput(seed int64, n int) *matrix.Dense {
	return testmat.RandomSym(seeded(seed, "dense", n), n)
}

// toEigen copies a dense matrix into the public Matrix type.
func toEigen(a *matrix.Dense) *eigen.Matrix {
	m := eigen.NewMatrix(a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			m.Set(i, j, a.At(i, j))
		}
	}
	return m
}

// family is the matrix generator of a service job.
type family int

const (
	famRandom    family = iota // testmat.RandomSym: semicircle spectrum
	famLaplacian               // testmat.GraphLaplacian: clustered spectrum, heavy deflation
)

// kind is what a service job asks for.
type kind int

const (
	kindVectors kind = iota // all eigenpairs
	kindValues              // all eigenvalues, no vectors
	kindRange               // eigenpairs of the lowest tenth of the spectrum
)

func (k kind) String() string {
	return [...]string{"vectors", "values", "range"}[k]
}

// jobSpec is one request of the service_mixed sequence.
type jobSpec struct {
	Class int // index into mixParams.Sizes
	N     int
	Fam   family
	Index int // which pooled matrix of (N, Fam) the job sends
	Kind  kind
}

// Range returns the 1-based eigenpair range the job requests (0, 0 = all).
func (j jobSpec) Range() (il, iu int) {
	if j.Kind != kindRange {
		return 0, 0
	}
	return 1, max(1, j.N/10)
}

// mixParams is the service_mixed job mix. Every proportion is stratified:
// each block of consecutive jobs holds the exact shares (in shuffled order),
// so two seeds differ in order and matrices, not in how much work they
// offer.
type mixParams struct {
	Sizes      [4]int // the four size classes
	SizeCounts [4]int // per block of 20 jobs
	Pool       [4]int // distinct matrices per (size class, family)
	SLO        time.Duration
	LapDegree  float64 // average degree of the Laplacian inputs
}

// serviceMix is the fixed mix the benchmark offers: n ∈ {64: 35%, 128: 35%,
// 256: 25%, 512: 5%}; 70% all eigenpairs, 20% values only, 10% the lowest
// tenth; half RandomSym and half GraphLaplacian.
var serviceMix = mixParams{
	Sizes:      [4]int{64, 128, 256, 512},
	SizeCounts: [4]int{7, 7, 5, 1},
	Pool:       [4]int{6, 6, 4, 2},
	SLO:        time.Second,
	LapDegree:  6,
}

// strata deals labels block by block: each block holds counts[i] copies of
// label i in shuffled order, so every full block has the exact shares.
type strata struct {
	rng    *rand.Rand
	counts []int
	block  []int
}

func newStrata(rng *rand.Rand, counts ...int) *strata {
	return &strata{rng: rng, counts: counts}
}

func (s *strata) next() int {
	if len(s.block) == 0 {
		for label, c := range s.counts {
			for range c {
				s.block = append(s.block, label)
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	l := s.block[0]
	s.block = s.block[1:]
	return l
}

// jobSequence generates the first total jobs of the seeded request
// sequence. Sizes are stratified over the whole sequence; kinds, families
// and pooled matrices are stratified within each size class, so the costly
// combinations (n=512 with all eigenpairs, say) keep their exact shares in
// every prefix instead of varying by seed. Each stream draws from its own
// generator, so a shorter sequence is a prefix of a longer one.
func jobSequence(seed int64, total int, mix mixParams) []jobSpec {
	sizes := newStrata(seeded(seed, "size"), mix.SizeCounts[:]...)
	var kinds, fams [4]*strata
	var pools [4][2]*strata
	for c := range mix.Sizes {
		kinds[c] = newStrata(seeded(seed, "kind", c), 7, 2, 1)
		fams[c] = newStrata(seeded(seed, "family", c), 1, 1)
		for f := range pools[c] {
			ones := make([]int, mix.Pool[c])
			for i := range ones {
				ones[i] = 1
			}
			pools[c][f] = newStrata(seeded(seed, "pool", c, f), ones...)
		}
	}
	jobs := make([]jobSpec, total)
	for i := range jobs {
		c := sizes.next()
		f := fams[c].next()
		jobs[i] = jobSpec{Class: c, N: mix.Sizes[c], Fam: family(f), Index: pools[c][f].next(), Kind: kind(kinds[c].next())}
	}
	return jobs
}

// inputKey identifies one distinct matrix a service job sends.
type inputKey struct {
	N     int
	Fam   family
	Index int
}

func (j jobSpec) input() inputKey { return inputKey{j.N, j.Fam, j.Index} }

// serviceInput generates the pooled matrix of one key.
func serviceInput(seed int64, k inputKey, mix mixParams) *matrix.Dense {
	rng := seeded(seed, "pool", k.N, k.Fam, k.Index)
	if k.Fam == famLaplacian {
		return testmat.GraphLaplacian(rng, k.N, mix.LapDegree)
	}
	return testmat.RandomSym(rng, k.N)
}
