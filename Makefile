GO ?= go

.PHONY: all build vet test race check bench-reuse bench-backtrans bench-batch bench-pipeline bench-tridiag bench-kernels bench-sbr tune

all: check

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate: build, vet, and the race-enabled test suite.
check:
	./scripts/check.sh

# The reusable-Solver experiment (steady-state allocations vs one-shot).
bench-reuse:
	$(GO) run ./cmd/eigbench -exp reuse
	$(GO) test -run '^$$' -bench 'BenchmarkSolverReuse|BenchmarkEigOneShot' -benchmem .

# The fused back-transformation timed alone per size and worker count;
# records the measured points in BENCH_backtrans.json alongside the printed
# table.
bench-backtrans:
	$(GO) run ./cmd/eigbench -exp backtrans -out BENCH_backtrans.json

# Concurrent batch solving vs a sequential loop over the same Solver; records
# the measured points (with machine context) in BENCH_batch.json.
bench-batch:
	$(GO) run ./cmd/eigbench -exp batch -out BENCH_batch.json

# The phase-pipelined batch executor vs whole-solve batch mode, with the
# bitwise-identity check between the two modes run in-bench; records the
# measured points (with machine context) in BENCH_pipeline.json.
bench-pipeline:
	$(GO) run ./cmd/eigbench -exp pipeline -out BENCH_pipeline.json

# The parallel tridiagonal stage vs its sequential form (D&C and BI), with
# the bitwise-identity check and trace-attributed sub-phase splits; records
# the measured points (with machine context) in BENCH_tridiag.json.
bench-tridiag:
	$(GO) run ./cmd/eigbench -exp tridiag -out BENCH_tridiag.json
	$(GO) test -run '^$$' -bench 'BenchmarkStebz' ./internal/tridiag

# The GEMM kernel rework: per-kernel Dgemm Gflop/s (seed baseline vs the
# packed kernels, assembly included via the build tag) and end-to-end Eig
# wall time, with bitwise gates; records BENCH_kernels.json.
bench-kernels:
	$(GO) run -tags blasasm ./cmd/eigbench -exp kernels -out BENCH_kernels.json

# The multi-sweep SBR stage 1 vs the direct single-sweep reduction:
# end-to-end Eig wall-clock per plan (direct, 64->8, 128->32->8) with the
# eigenvalue-drift gate; records the measured points (with machine context)
# in BENCH_sbr.json.
bench-sbr:
	$(GO) run -tags blasasm ./cmd/eigbench -exp sbr -out BENCH_sbr.json

# Tune this machine and persist the profile eigen.Solver loads at
# construction ($EIGEN_TUNE_PROFILE or the user cache dir).
tune:
	$(GO) run -tags blasasm ./cmd/eigtune -save
