// Command perfbench is the repository's benchmark: given a workload and a
// seed it generates the inputs, runs them through the public entry points
// (eigen.Solver, or the HTTP service through its client), checks every
// output, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones, from a separate run on the same
// inputs that drives the solve phase by phase on a traced scheduler.
//
//	bash perfbench/run.sh --workload eig_n2048 --seed 1 --seconds 15 --trace 0
//
// The exit code is 0 when every output passed its checks, 1 when one did
// not, and 2 on a usage or set-up error. METRICS.md describes the workloads
// and what each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// Set only by tests: toy shrinks every workload's matrices so a smoke
	// run takes seconds; corruptFn alters each solver output before it is
	// checked, to prove a wrong output fails the run.
	toy       bool
	corruptFn func(output)
}

// n is the matrix order of the dense workloads.
func (c config) n() int {
	if c.toy {
		return 64
	}
	return 2048
}

// mix is the service_mixed job mix.
func (c config) mix() mixParams {
	m := serviceMix
	if c.toy {
		m.Sizes = [4]int{16, 24, 32, 48}
	}
	return m
}

func (c config) corrupt(o output) {
	if c.corruptFn != nil {
		c.corruptFn(o)
	}
}

// workload is one named input set; why records the reason it exists.
type workload struct {
	why string
	run func(config) (*report, error)
}

var workloads = map[string]workload{
	"eig_n2048": {
		why: "Solver.Eig, all pairs, n=2048 random symmetric, Workers=2: the paper's target; back-transformation is ~61% of wall",
		run: func(c config) (*report, error) {
			return runDense(c, denseParams{N: c.n(), Vectors: true, Workers: 2, Setups: 1})
		},
	},
	"eigvalues_n2048": {
		why: "Solver.EigValues on the same matrix, Workers=2: no back-transformation, stage 1 ~75% of wall, sterf instead of D&C",
		run: func(c config) (*report, error) {
			return runDense(c, denseParams{N: c.n(), Workers: 2, Setups: 2})
		},
	},
	"eigvalues_n2048_w1": {
		why: "the same EigValues at Workers=1: the single-thread baseline and the library default, no scheduler",
		run: func(c config) (*report, error) {
			return runDense(c, denseParams{N: c.n(), Workers: 1, Setups: 1})
		},
	},
	"service_mixed": {
		why: "2 clients in a closed loop over HTTP, seeded job mix n 64-512, values/vectors/range: per-solve overheads the dense workloads cannot see",
		run: func(c config) (*report, error) { return runService(c, c.mix()) },
	},
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run executes one invocation, writing the report to w, and returns the
// process exit code.
func run(cfg config, w, errw io.Writer) int {
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(errw, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(names(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(errw, "perfbench: --seconds must be positive\n")
		return 2
	}
	host := currentHost()
	why, err := comparability(host)
	if err != nil {
		fmt.Fprintf(errw, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v: %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, wl.why)
	fmt.Fprintf(w, "# host %+v\n", host)
	if len(why) == 0 {
		fmt.Fprintf(w, "# comparable: yes (host block matches perfbench/host.json)\n")
	}
	for _, reason := range why {
		fmt.Fprintf(w, "# NOT COMPARABLE with the recorded figures: %s\n", reason)
	}
	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(errw, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if err := rep.print(w, cfg.trace); err != nil {
		fmt.Fprintf(errw, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}
