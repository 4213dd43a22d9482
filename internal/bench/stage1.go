package bench

import (
	"time"

	"repro/internal/band"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/work"
)

// measureStage1 times the scheduled stage-1 reduction under cfg: best of
// reps, after an untimed warm-up that populates the arena.
func measureStage1(s *sched.Scheduler, a *matrix.Dense, cfg band.Config, reps int) time.Duration {
	ws := work.NewArena()
	band.ReduceWith(a, cfg, s.NewJob(nil), ws, nil)
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		band.ReduceWith(a, cfg, s.NewJob(nil), ws, nil)
		best = minDur(best, time.Since(start), r == 0)
	}
	return best
}

// LookaheadPoint is one measured look-ahead depth of the eigtune sweep.
type LookaheadPoint struct {
	Depth int     `json:"depth"`
	Secs  float64 `json:"secs"`
}

// LookaheadSweep times the scheduled stage-1 reduction at each look-ahead
// depth (best of reps). All depths are bitwise identical — the knob only
// steers the ready queue — so only time is recorded. It is the measurement
// core of the eigtune depth sweep.
func LookaheadSweep(n, nb, workers int, depths []int, reps int) []LookaheadPoint {
	if workers < 1 {
		workers = 1
	}
	if reps < 1 {
		reps = 1
	}
	s := sched.New(workers)
	defer s.Shutdown()
	a := matFor(n)
	pts := make([]LookaheadPoint, 0, len(depths))
	for _, d := range depths {
		sec := measureStage1(s, a, band.Config{NB: nb, Lookahead: d}, reps)
		pts = append(pts, LookaheadPoint{Depth: d, Secs: sec.Seconds()})
	}
	return pts
}
