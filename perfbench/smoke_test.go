package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if strings.Join(wl, ",") != strings.Join(names(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, names())
	}
	for _, c := range []struct {
		file, code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.file), len(c.code))
			continue
		}
		for i, d := range c.file {
			if got := c.code[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("metric %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, d.Name, d.Unit, d.Better, got.Name, got.Unit, got.Better)
			}
		}
	}
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func smoke(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(cfg, &out, &errw)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s\n%s", err, out.String(), errw.String())
	}
	return code, r, out.String()
}

// Every workload, at toy size, in both modes, prints exactly the metrics
// BENCHMARK.json names, and passes its checks.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, name := range names() {
		for _, tr := range []bool{false, true} {
			code, r, out := smoke(t, config{workload: name, seed: 1, seconds: 1, trace: tr, toy: true})
			if code != 0 || !r.Correct || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, correct %v, attempted %d\n%s", name, tr, code, r.Correct, r.Attempted, out)
			}
			if name == "service_mixed" && strings.Count(out, "scaled-input probe") != len(defectScales) {
				t.Errorf("%s trace=%v does not report every scaled-input probe\n%s", name, tr, out)
			}
			want := metricNames(b.EndToEnd)
			if tr {
				want = metricNames(b.PerLayer)
			}
			var got []string
			for m := range r.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v printed metrics %v, want %v", name, tr, got, want)
			}
		}
	}
}

// A wrong output fails the run: non-zero exit and correct=false.
func TestSmokeFailedCheckExitsNonZero(t *testing.T) {
	for _, name := range names() {
		cfg := config{workload: name, seed: 1, seconds: 1, toy: true, corruptFn: func(o output) { o.values[0] += 1 }}
		code, r, out := smoke(t, cfg)
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s with corrupted outputs: exit %d, correct %v, failed %d\n%s", name, code, r.Correct, r.Failed, out)
		}
	}
}
