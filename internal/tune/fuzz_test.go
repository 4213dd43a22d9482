package tune

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, which reads a file a user or
// another tool may have written: Load must never panic, and every profile it
// accepts must survive Save → Load unchanged. The seeds are valid v1, v2 and
// v3 profiles for this machine and the shapes Load is known to reject.
func FuzzLoad(f *testing.F) {
	host := fmt.Sprintf(`"goos": %q, "goarch": %q, "num_cpu": %d`, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	for _, body := range []string{
		// Accepted: one profile per schema version.
		`{"version": 1, %s, "gemm": {"mc": 192, "kc": 128, "nc": 768, "kernel": "2x4"}, "nb": 48, "col_block": 96}`,
		`{"version": 2, %s, "gemm": {"kernel": "8x4"}, "nb": 32, "lookahead": 3}`,
		`{"version": 3, %s, "gemm": {}, "nb": 48, "lookahead": 2, "wide_band": 64, "band_sweeps": [8], "alpha_flops": 5e9, "beta_flops": 1e9, "model_nb": 44, "created": "2026-01-01T00:00:00Z"}`,
		// Rejected: fields newer than the claimed schema.
		`{"version": 1, %s, "gemm": {}, "lookahead": 2}`,
		`{"version": 2, %s, "gemm": {}, "wide_band": 64, "band_sweeps": [8]}`,
		// Rejected: unknown schema, rounding-relevant KC, unknown kernel,
		// negative knobs, non-narrowing sweeps.
		`{"version": 4, %s, "gemm": {}}`,
		`{"version": 3, %s, "gemm": {"kc": 256}}`,
		`{"version": 3, %s, "gemm": {"kernel": "16x16"}}`,
		`{"version": 3, %s, "gemm": {"mc": -1}, "nb": -4}`,
		`{"version": 3, %s, "gemm": {}, "wide_band": 32, "band_sweeps": [32, 8]}`,
		`{"version": 3, %s, "gemm": {}, "band_sweeps": [0]}`,
	} {
		f.Add([]byte(fmt.Sprintf(body, host)))
	}
	// Rejected: foreign hardware, truncated and non-JSON files.
	f.Add([]byte(`{"version": 3, "goos": "plan9", "goarch": "mips", "num_cpu": 1, "gemm": {}}`))
	f.Add([]byte(`{"version": 3, "goos": `))
	f.Add([]byte("not json"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := p.Save(out); err != nil {
			t.Fatalf("Save refused a profile Load accepted: %v", err)
		}
		q, err := Load(out)
		if err != nil {
			t.Fatalf("Load rejected a profile Save wrote: %v", err)
		}
		if !q.Equal(p) {
			t.Fatalf("Save → Load changed the profile:\n got %+v\nwant %+v", *q, *p)
		}
	})
}
