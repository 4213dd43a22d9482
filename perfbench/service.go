package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	eigen "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/work"
)

const (
	apiKey       = "perfbench-key"
	serviceSetup = 5 // set-ups per run; setup_s is their median
	// clients is the number of concurrent callers, each holding one HTTP
	// connection: the Solver's admission slots at Workers=2.
	clients = 2
	// maxJobsPerSecond bounds the length of the generated job sequence: five
	// times the capacity measured on the reference host (~40 jobs/s).
	maxJobsPerSecond = 200
	// storeTTL is how long the MemStore keeps finished jobs. Clients fetch
	// results as soon as jobs finish, so a short TTL keeps the live heap —
	// and with it the garbage collector's work — from growing over the run.
	storeTTL = 5 * time.Second
)

func serviceOptions() *eigen.Options {
	return &eigen.Options{Workers: 2, DisableTuning: true}
}

// countingListener counts accepted connections, so the run can prove the
// load came over at most one per client.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// serverEnv is one in-process service: Solver, MemStore, service.Server on
// a loopback listener, and a client whose transport is capped at one
// connection per concurrent caller.
type serverEnv struct {
	solver *eigen.Solver
	store  *service.MemStore
	srv    *service.Server
	hs     *http.Server
	ln     *countingListener
	tr     *http.Transport
	cl     *client.Client
	served chan error
}

func startServer() (*serverEnv, error) {
	e := &serverEnv{solver: eigen.NewSolver(serviceOptions()), store: service.NewMemStore(storeTTL)}
	srv, err := service.New(service.Config{Solver: e.solver, Store: e.store, APIKeys: []string{apiKey}})
	if err != nil {
		e.solver.Close()
		e.store.Close()
		return nil, fmt.Errorf("starting service: %w", err)
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e.ln = &countingListener{Listener: ln}
	e.hs = &http.Server{Handler: srv}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(e.ln) }()
	e.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	e.cl = client.New("http://"+ln.Addr().String(), apiKey)
	e.cl.SetHTTPClient(&http.Client{Transport: e.tr})
	return e, nil
}

// close stops the HTTP server, cancels in-flight jobs and releases the
// store and solver, waiting for the serving goroutine to end.
func (e *serverEnv) close() {
	if e.hs != nil {
		e.hs.Close()
		<-e.served
		e.tr.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.store.Close()
	e.solver.Close()
}

// jobRecord is what the client observed for one job.
type jobRecord struct {
	spec    jobSpec
	submit  time.Duration // client.Submit wall
	result  time.Duration // client.Result wall
	latency time.Duration // send → result in hand
	job     *client.Job   // terminal job record (server timestamps)
	digest  [32]byte      // of the result; the result itself is not kept
	err     error
}

// one sends a job, waits for its result and digests it (after the latency
// is taken). corrupt is the test hook of config.
func (e *serverEnv) one(ctx context.Context, spec jobSpec, a *eigen.Matrix, corrupt func(output)) jobRecord {
	r := jobRecord{spec: spec}
	il, iu := spec.Range()
	t0 := time.Now()
	j, err := e.cl.Submit(ctx, a, &client.SubmitOptions{ValuesOnly: spec.Kind == kindValues, IL: il, IU: iu})
	r.submit = time.Since(t0)
	if err == nil {
		r.job, err = e.cl.Wait(ctx, j.ID)
	}
	var res *client.Result
	if err == nil {
		t1 := time.Now()
		res, err = e.cl.Result(ctx, j.ID)
		r.result = time.Since(t1)
	}
	r.latency = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	out := fromResult(res.Values, res.Vectors, nil)
	corrupt(out)
	r.digest = out.digest()
	return r
}

// svcInput is one distinct matrix of the run.
type svcInput struct {
	ref *matrix.Dense
	a   *eigen.Matrix // ref as the client sends it
}

// solveKey is one distinct request: a matrix and what is asked of it.
type solveKey struct {
	in   inputKey
	kind kind
}

func (k solveKey) spec() jobSpec {
	return jobSpec{N: k.in.N, Fam: k.in.Fam, Index: k.in.Index, Kind: k.kind}
}

// refResult is the verified direct Solver solve of one distinct request.
type refResult struct {
	err    error
	digest [32]byte
	qual   quality
	wall   time.Duration
}

type serviceRun struct {
	cfg    config
	mix    mixParams
	rep    *report
	inputs map[inputKey]*svcInput
	refs   map[solveKey]*refResult
	keys   []solveKey // distinct requests in first-seen order
}

func (r *serviceRun) input(k inputKey) *svcInput {
	in, ok := r.inputs[k]
	if !ok {
		ref := serviceInput(r.cfg.seed, k, r.mix)
		in = &svcInput{ref: ref, a: toEigen(ref)}
		r.inputs[k] = in
	}
	return in
}

// warmJobs is one all-eigenpairs job per size class, sent during set-up.
func (r *serviceRun) warmJobs() []jobSpec {
	var out []jobSpec
	for c, n := range r.mix.Sizes {
		out = append(out, jobSpec{Class: c, N: n})
	}
	return out
}

func runService(cfg config, mix mixParams) (*report, error) {
	r := &serviceRun{cfg: cfg, mix: mix, rep: newReport(), inputs: make(map[inputKey]*svcInput), refs: make(map[solveKey]*refResult)}
	rep := r.rep
	jobs := jobSequence(cfg.seed, int(cfg.seconds*maxJobsPerSecond)+1, mix)
	// Every input is generated before the clients start; they only read.
	for _, j := range append(r.warmJobs(), jobs...) {
		r.input(j.input())
	}
	rep.note("workload: closed loop, %d clients sending the seeded job sequence for %gs to service.Server (MemStore, auth on) via client over loopback HTTP; Workers=2, tuning off",
		clients, cfg.seconds)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Set-up: NewSolver + server start + one warm-up job per size class,
	// repeated; the last environment serves the stream.
	var setups []float64
	var env *serverEnv
	var warm []jobRecord
	for range serviceSetup {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = startServer()
		if err != nil {
			return nil, err
		}
		for _, w := range r.warmJobs() {
			warm = append(warm, env.one(ctx, w, r.input(w.input()).a, cfg.corrupt))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Each client takes the next job of the sequence as soon as its previous
	// result is in hand, until the window closes.
	recs := make([]jobRecord, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				recs[i] = env.one(ctx, jobs[i], r.inputs[jobs[i].input()].a, cfg.corrupt)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	recs = recs[:min(int(next.Load()), len(jobs))]
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if conns := env.ln.n.Load(); conns > clients {
		return nil, fmt.Errorf("load used %d HTTP connections, want at most %d", conns, clients)
	}

	// Verification, outside the timed stream: every result must be bitwise
	// equal to a checked direct Solver solve of the same request.
	for _, rec := range warm {
		r.verify(env.solver, rec)
	}
	rep.attempted = len(warm) + len(recs)
	var lat []float64
	var within int
	for _, rec := range recs {
		if !r.verify(env.solver, rec) {
			continue
		}
		lat = append(lat, rec.latency.Seconds()*1e3)
		if rec.latency <= mix.SLO {
			within++
		}
	}
	r.probeScaled(env.solver)
	withinFrac := float64(within) / float64(max(1, len(recs)))
	jobsPerSec := float64(len(recs)) / elapsed.Seconds()
	rep.note("stream: %d jobs in %.3gs (%.4g jobs/s), %d verified, within %v: %.4f of sent; %d HTTP connection(s); mean latency %.4g ms",
		len(recs), elapsed.Seconds(), jobsPerSec, len(lat), mix.SLO, withinFrac, env.ln.n.Load(), mean(lat))
	if len(lat) == 0 {
		rep.fail("no job of the stream produced a verified result")
		return rep, nil
	}

	if !cfg.trace {
		rep.set("latency_p50_ms", median(lat), "median send → verified result over %d of %d jobs", len(lat), len(recs))
		rep.set("setup_s", median(setups), "median of %d × (NewSolver + server start + %d warm-up jobs)", len(setups), len(mix.Sizes))
		rep.set("peak_rss_mb", rss, "VmHWM over the stream (client and server; reset after set-up)")
		return rep, nil
	}

	rep.set("service.latency_p95_ms", quantile(lat, 0.95), "nearest-rank p95 of send → verified result over %d jobs", len(lat))
	rep.set("service.within_slo_frac", withinFrac, "jobs verified within %v / %d sent", mix.SLO, len(recs))
	rep.set("service.jobs_per_s", jobsPerSec, "%d jobs / %.4gs with %d clients", len(recs), elapsed.Seconds(), clients)
	rep.set("work.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs)/float64(len(recs)), "runtime.MemStats delta over the stream (client + server) / %d jobs", len(recs))
	rep.set("work.alloc_mb_per_solve", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(recs)), "runtime.MemStats delta over the stream (client + server) / %d jobs", len(recs))
	r.callTimings(recs)
	return rep, r.tracedSplit()
}

// verify compares one job's outcome with the direct solve of its request
// and reports whether the job produced a verified result.
func (r *serviceRun) verify(s *eigen.Solver, rec jobRecord) bool {
	k := solveKey{rec.spec.input(), rec.spec.Kind}
	ref, ok := r.refs[k]
	if !ok {
		ref = r.direct(s, k)
		r.refs[k] = ref
		r.keys = append(r.keys, k)
	}
	what := fmt.Sprintf("job n=%d %s family=%d", k.in.N, k.kind, k.in.Fam)
	switch {
	case rec.err != nil:
		r.rep.fail("%s: %v", what, rec.err)
	case ref.err != nil:
		r.rep.fail("%s: service solved it but the direct solve failed: %v", what, ref.err)
	case ref.qual.err != nil:
		r.rep.fail("%s: %v", what, ref.qual.err)
	case rec.digest != ref.digest:
		r.rep.fail("%s: service result differs bitwise from the direct Solver solve", what)
	default:
		return true
	}
	return false
}

// defectScales are the powers of two of ROADMAP item 3: finite inputs
// scaled this far toward the ends of the float64 range make the solver fail
// (no_convergence at 2^1020; at 2^-1013 some inputs come back inaccurate).
// The stream leaves
// them out, since the benchmark counts only operations expected to succeed;
// probeScaled solves them once per run, outside every timing and outside
// attempted/failed, and prints the outcome, so the defect stays visible.
var defectScales = [...]int{1020, -1013}

// probeScaled solves the first pooled RandomSym input of the smallest size,
// scaled by each of defectScales, and checks the result against the sent
// matrix scaled back exactly (entries that became subnormal keep the bits
// the solver received), with λ scaled back by the same power of two.
func (r *serviceRun) probeScaled(s *eigen.Solver) {
	a := serviceInput(r.cfg.seed, inputKey{N: r.mix.Sizes[0], Fam: famRandom}, r.mix)
	for _, e := range defectScales {
		sent, ref := a.Clone(), a.Clone()
		for i, v := range a.Data {
			sent.Data[i] = math.Ldexp(v, e)
			ref.Data[i] = math.Ldexp(sent.Data[i], -e)
		}
		outcome := "verified"
		res, err := s.Eig(toEigen(sent))
		if err == nil {
			out := fromResult(res.Values, res.Vectors, nil)
			for i, v := range out.values {
				out.values[i] = math.Ldexp(v, -e)
			}
			err = check(ref, out, 0, 0).err
		}
		if err != nil {
			outcome = "KNOWN DEFECT: " + err.Error()
		}
		r.rep.note("scaled-input probe (ROADMAP item 3; not in attempted/failed): n=%d RandomSym × 2^%d: %s", a.Rows, e, outcome)
	}
}

// direct solves one request through the public Solver API and checks it.
func (r *serviceRun) direct(s *eigen.Solver, k solveKey) *refResult {
	in := r.input(k.in)
	il, iu := k.spec().Range()
	ref := &refResult{}
	var out output
	t0 := time.Now()
	switch k.kind {
	case kindValues:
		vals, err := s.EigValues(in.a)
		out, ref.err = output{values: vals}, err
	case kindRange:
		res, err := s.EigRange(in.a, il, iu)
		if ref.err = err; err == nil {
			out = fromResult(res.Values, res.Vectors, nil)
		}
	default:
		res, err := s.Eig(in.a)
		if ref.err = err; err == nil {
			out = fromResult(res.Values, res.Vectors, nil)
		}
	}
	ref.wall = time.Since(t0)
	if ref.err == nil {
		ref.digest = out.digest()
		ref.qual = check(in.ref, out, il, iu)
	}
	return ref
}

// callTimings sets the per-call and job-record metrics of the stream.
func (r *serviceRun) callTimings(recs []jobRecord) {
	rep := r.rep
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var submit, result, wait []float64
	run := make([][]float64, len(r.mix.Sizes))
	for _, rec := range recs {
		submit = append(submit, ms(rec.submit))
		if rec.job == nil {
			continue
		}
		j := rec.job
		wait = append(wait, ms(j.Started.Sub(j.Created)))
		if rec.err == nil {
			result = append(result, ms(rec.result))
			run[rec.spec.Class] = append(run[rec.spec.Class], ms(j.Finished.Sub(j.Started)))
		}
	}
	rep.set("service.submit_ms_p50", median(submit), "client.Submit wall, %d jobs", len(submit))
	rep.set("service.submit_ms_p99", quantile(submit, 0.99), "client.Submit wall, nearest-rank p99 of %d", len(submit))
	rep.set("client.result_ms_p50", median(result), "client.Result wall, %d verified jobs", len(result))
	rep.set("eigen.admission_wait_ms_p50", median(wait), "job record Started − Created, %d jobs", len(wait))
	rep.set("eigen.admission_wait_ms_p99", quantile(wait, 0.99), "job record Started − Created, nearest-rank p99 of %d", len(wait))
	for c, n := range r.mix.Sizes {
		rep.set(fmt.Sprintf("service.run_ms_p50.n%d", serviceMix.Sizes[c]), median(run[c]),
			"job record Finished − Started, %d verified n=%d jobs", len(run[c]), n)
	}
}

// tracedSplit drives every distinct request of the stream through
// the core plan — untraced twice (the first warms the arenas), then on a
// traced scheduler with a collector — and sets the per-phase split summed
// over them. Each drive must equal the direct Solver solve bitwise.
func (r *serviceRun) tracedSplit() error {
	rep := r.rep
	plain := sched.New(2)
	defer plain.Shutdown()
	traced := sched.New(2, sched.WithTrace())
	defer traced.Shutdown()
	pool := work.NewPool()
	tc := trace.New()
	var keys []solveKey
	var direct time.Duration
	var worst quality
	for _, k := range r.keys {
		if ref := r.refs[k]; ref.err == nil {
			keys = append(keys, k)
			direct += ref.wall
			worst.residual = max(worst.residual, ref.qual.residual)
			worst.ortho = max(worst.ortho, ref.qual.ortho)
		}
	}
	if len(keys) == 0 {
		return errors.New("no distinct request to trace")
	}
	var plainWall time.Duration
	var drives []driveResult
	for pass := range 3 {
		for _, k := range keys {
			in := r.input(k.in)
			il, iu := k.spec().Range()
			co := core.Options{Method: core.MethodDC, Vectors: k.kind != kindValues, IL: il, IU: iu}
			co.Arena = pool.Get(k.in.N)
			s, c := plain, (*trace.Collector)(nil)
			if pass == 2 {
				s, c = traced, tc
			}
			dr, err := drive(in.ref, co, s, c)
			pool.Put(co.Arena)
			rep.attempted++
			if err != nil {
				rep.fail("plan-drive of n=%d %s: %v", k.in.N, k.kind, err)
				return nil
			}
			if dr.out.digest() != r.refs[k].digest {
				rep.fail("plan-drive of n=%d %s differs bitwise from the Solver solve", k.in.N, k.kind)
			}
			switch pass {
			case 1:
				plainWall += dr.wall
			case 2:
				drives = append(drives, dr)
			}
		}
	}
	var tracedWall time.Duration
	for _, dr := range drives {
		tracedWall += dr.wall
	}
	rep.set("eigen.residual", worst.residual, "worst over %d distinct verified requests", len(keys))
	rep.set("eigen.ortho", worst.ortho, "worst over %d distinct verified requests", len(keys))
	rep.set("eigen.overhead_s", (direct - plainWall).Seconds(), "Σ direct Solver wall %.4gs − Σ untraced plan-drive wall %.4gs over %d requests", direct.Seconds(), plainWall.Seconds(), len(keys))
	rep.set("core.trace_overhead_frac", (tracedWall-plainWall).Seconds()/plainWall.Seconds(), "Σ traced plan-drive wall %.4gs vs untraced %.4gs", tracedWall.Seconds(), plainWall.Seconds())
	layerSplit(rep, drives, traced.Trace(), 2, r.mix.Sizes[2])
	return nil
}
