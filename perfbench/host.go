package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/bench"
	"repro/internal/blas"
)

// referenceHost is the host block the benchmark's recorded figures were
// measured on. A run whose host block differs, or whose build did not
// activate the assembly GEMM kernels, is flagged as not comparable.
//
//go:embed host.json
var referenceHost []byte

// hostBlock is the configuration printed with every run.
type hostBlock struct {
	Host       bench.HostInfo `json:"host"`
	AsmActive  bool           `json:"asm_active"`
	Gomaxprocs int            `json:"gomaxprocs"`
	Clients    int            `json:"service_clients"`
	SLOSeconds float64        `json:"slo_s"`
}

func currentHost() hostBlock {
	return hostBlock{
		Host:       bench.Host(),
		AsmActive:  blas.AsmActive(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Clients:    clients,
		SLOSeconds: serviceMix.SLO.Seconds(),
	}
}

// comparability lists why this run cannot be compared with the recorded
// figures (nil when it can).
func comparability(cur hostBlock) ([]string, error) {
	var ref hostBlock
	if err := json.Unmarshal(referenceHost, &ref); err != nil {
		return nil, fmt.Errorf("parsing host.json: %w", err)
	}
	var why []string
	if !cur.AsmActive {
		why = append(why, "assembly GEMM kernels inactive (build without -tags blasasm, or not amd64)")
	}
	if cur != ref {
		a, _ := json.Marshal(cur)
		b, _ := json.Marshal(ref)
		why = append(why, fmt.Sprintf("host block %s differs from the reference %s", a, b))
	}
	return why, nil
}
