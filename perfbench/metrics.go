package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one metric: its unit, which direction is better, and
// (for a layer metric) the end-to-end metric and workload it should move.
// The lists below are the benchmark's catalogue; BENCHMARK.json names the
// same metrics and the package tests keep the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string // layer metrics only: what an improvement here should move
}

var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// phases are the solver's named phases as the per-layer metrics call them,
// with the core plan phase each one times.
var phases = []struct{ layer, phase string }{
	{"band", "stage1"},
	{"bulge", "stage2"},
	{"tridiag", "eig_t"},
	{"backtransform", "back_trans"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"backtransform.s", "s", "lower", "latency_p50_ms on eig_n2048; no change on eigvalues_n2048"},
		{"backtransform.gflops", "GF/s", "higher", "latency_p50_ms on eig_n2048"},
		{"backtransform.dgemm_frac", "ratio", "higher", "latency_p50_ms on eig_n2048"},
		{"householder.larfb_gflops.backtrans", "GF/s", "higher", "latency_p50_ms on eig_n2048"},
		{"blas.dgemm_gflops.backtrans", "GF/s", "higher", "latency_p50_ms on eig_n2048"},
		{"band.s", "s", "lower", "latency_p50_ms on eigvalues_n2048 (~75%) and eigvalues_n2048_w1; ~21% of eig_n2048"},
		{"band.gflops", "GF/s", "higher", "latency_p50_ms on eigvalues_n2048 and eigvalues_n2048_w1"},
		{"band.dgemm_frac", "ratio", "higher", "latency_p50_ms on eigvalues_n2048 and eigvalues_n2048_w1"},
		{"householder.larfb_gflops.stage1", "GF/s", "higher", "latency_p50_ms on eigvalues_n2048 and eigvalues_n2048_w1"},
		{"blas.dgemm_gflops.stage1", "GF/s", "higher", "latency_p50_ms on eigvalues_n2048 and eigvalues_n2048_w1"},
		{"bulge.s", "s", "lower", "latency_p50_ms on eigvalues_n2048 (~17%); little on eig_n2048 (~4%)"},
		{"bulge.gflops", "GF/s", "higher", "latency_p50_ms on eigvalues_n2048"},
		{"tridiag.s", "s", "lower", "latency_p50_ms on eig_n2048 (D&C, ~14%); no change on eigvalues_n2048 (sterf)"},
		{"tridiag.gflops", "GF/s", "higher", "latency_p50_ms on eig_n2048"},
	}
	for _, p := range phases {
		moves := "latency_p50_ms on eigvalues_n2048 vs eigvalues_n2048_w1; latency_p50_ms on service_mixed"
		defs = append(defs,
			metricDef{"sched.tasks." + p.layer, "count", "lower", moves},
			metricDef{"sched.busy_s." + p.layer, "s", "lower", moves},
			metricDef{"sched.idle_s." + p.layer, "s", "lower", moves},
			metricDef{"sched.task_us_p50." + p.layer, "us", "higher", moves},
		)
	}
	defs = append(defs, []metricDef{
		{"blas.dgemm_gflops.sq512", "GF/s", "higher", "ceiling reference for every dgemm_frac"},
		{"core.unaccounted_s", "s", "lower", "any; validity: the named phases cover >= 95% of the traced wall"},
		{"core.trace_overhead_frac", "ratio", "lower", "any; validity of the per-layer split"},
		{"eigen.overhead_s", "s", "lower", "latency_p50_ms on service_mixed; no change on eig_n2048"},
		{"eigen.residual", "n_eps", "lower", "correctness margin (budget 200)"},
		{"eigen.ortho", "n_eps", "lower", "correctness margin (budget 200)"},
		{"work.allocs_per_solve", "count", "lower", "setup_s, peak_rss_mb, latency_p50_ms on service_mixed"},
		{"work.alloc_mb_per_solve", "MiB", "lower", "setup_s, peak_rss_mb, latency_p50_ms on service_mixed"},
		{"service.submit_ms_p50", "ms", "lower", "latency_p50_ms on service_mixed"},
		{"service.submit_ms_p99", "ms", "lower", "service.latency_p95_ms, within_slo_frac on service_mixed"},
		{"client.result_ms_p50", "ms", "lower", "latency_p50_ms on service_mixed"},
		{"eigen.admission_wait_ms_p50", "ms", "lower", "service.latency_p95_ms, within_slo_frac on service_mixed"},
		{"eigen.admission_wait_ms_p99", "ms", "lower", "service.latency_p95_ms, within_slo_frac on service_mixed"},
		{"service.run_ms_p50.n64", "ms", "lower", "latency_p50_ms on service_mixed"},
		{"service.run_ms_p50.n128", "ms", "lower", "latency_p50_ms on service_mixed"},
		{"service.run_ms_p50.n256", "ms", "lower", "service.latency_p95_ms, within_slo_frac on service_mixed"},
		{"service.run_ms_p50.n512", "ms", "lower", "service.latency_p95_ms, within_slo_frac on service_mixed"},
		{"service.latency_p95_ms", "ms", "lower", "end-to-end tail on service_mixed (a layer metric because its run-to-run spread exceeds any bound)"},
		{"service.within_slo_frac", "ratio", "higher", "end-to-end share of jobs verified within 1 s on service_mixed"},
		{"service.jobs_per_s", "1/s", "higher", "latency_p50_ms on service_mixed (closed loop: jobs/s × latency ≈ clients)"},
	}...)
	return defs
}()

// value is one measured metric with the base it was computed from (printed
// beside it so every ratio and rate can be read back to its inputs).
type value struct {
	v    float64
	base string
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]value
	notes             []string
}

func newReport() *report { return &report{metrics: make(map[string]value)} }

func (r *report) set(name string, v float64, base string, args ...any) {
	r.metrics[name] = value{v: v, base: fmt.Sprintf(base, args...)}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records an operation that failed or an output that did not pass its
// check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// correct reports whether every operation succeeded and passed its check.
func (r *report) correct() bool { return r.failed == 0 }

// print writes the human-readable lines and, last, the one-line JSON result
// with exactly the metrics of the mode. A layer metric the workload does
// not exercise, or any metric of a run that failed its checks, prints as 0
// and says why.
func (r *report) print(w io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", m)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jm, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		switch {
		case ok:
		case !r.correct():
			v.base = "not measured: the run failed its checks"
		case !trace:
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		default:
			v.base = "not exercised by this workload"
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.v)
		}
		line := fmt.Sprintf("%-38s %14s %-6s", d.Name, strconv.FormatFloat(v.v, 'g', 6, 64), d.Unit)
		if v.base != "" {
			line += "  [" + v.base + "]"
		}
		if d.Moves != "" {
			line += "  -> " + d.Moves
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		out[d.Name] = jm{Value: v.v, Unit: d.Unit}
	}
	var extra []string
	for name := range r.metrics {
		if !defined(endToEnd, name) && !defined(perLayer, name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// resetPeakRSS collects the garbage of the set-up, returns it to the
// system, and restarts the kernel's high-water mark of the resident set, so
// that peakRSSMiB afterwards covers only the measured window.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the nearest-rank q-quantile of xs (the largest value when
// fewer than 1/(1−q) samples exist).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(len(s)-1, i))]
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}
