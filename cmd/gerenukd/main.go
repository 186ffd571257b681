// Command gerenukd is the multi-tenant job service: one long-lived
// process accepting concurrent job submissions from many tenants over
// HTTP, running them through the shared speculative-execution engine
// under admission control and weighted fair-share scheduling, and
// exposing the per-tenant live view on the same address as the
// observability plane.
//
// Usage:
//
//	gerenukd -addr 127.0.0.1:9478 [-workers 4] [-queue-depth 64]
//	         [-quota N] [-scale N] [-engine compiled|interp]
//	         [-checkpoint-dir dir] [-trace out.json] [-metrics-json out.json]
//
// -checkpoint-dir persists job checkpoints (atomic write, checksummed
// on load) so a restarted service resumes tasks instead of recomputing
// them; without it checkpoints live in process memory only.
//
// Endpoints (on top of the obs plane's /metrics /healthz /statusz
// /flamez /debug/pprof):
//
//	POST /submit?tenant=T&app=PR&mode=gerenuk[&chaos=SEED][&wait=1]
//	    Submit one job. With wait=1 the response blocks until the job
//	    finishes and carries its output digest; otherwise it returns the
//	    job ID immediately. chaos=SEED arms the deterministic fault
//	    injector for just this job (output must stay byte-identical).
//	    Rejections (queue depth, memory quota) return 429 with the
//	    admission reason.
//	POST /tenant?name=T[&weight=W][&quota=N][&depth=D]
//	    Configure a tenant's fair-share weight, memory quota and queue
//	    depth before (or between) submissions.
//	GET  /await?id=JOBID     Block until the job finishes; returns state
//	    plus a sha256 of the output bytes, so callers can assert
//	    byte-equality across modes and tenants without shipping outputs.
//	GET  /jobs               List all jobs and their states.
//	POST /cancel?id=JOBID    Cancel a queued (or cooperatively, running) job.
//	POST /quitz              Drain the service and exit.
//
// A present but malformed integer parameter (chaos, memory, weight,
// quota, depth) or a weight below 1 answers 400; quota=-1 resets a
// tenant to unlimited. The state-changing endpoints (submit, tenant,
// cancel, quitz) answer 405 to any method but POST.
//
// The per-tenant view: /statusz carries a "cluster" source with each
// tenant's queued/running/done counts, quota usage and p50/p99 job
// latency; /metrics carries cluster_jobs_*_total{tenant},
// cluster_job_latency_ns{tenant}, task_latency_ns{tenant} and
// gc_pause_ns{tenant,job,mode} series.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/trace"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gerenukd: %v\n", err)
	os.Exit(1)
}

// daemon binds the HTTP handlers to the cluster service and the run
// configuration template.
type daemon struct {
	svc    *cluster.Service
	base   bench.Config
	gcAttr *obs.GCAttributor

	mu   sync.Mutex
	jobs map[string]*cluster.Job

	quit     chan struct{}
	quitOnce sync.Once
}

// jobJSON is the wire form of one job's state.
type jobJSON struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Name      string `json:"name"`
	State     string `json:"state"`
	OutputSHA string `json:"output_sha256,omitempty"`
	OutputLen int    `json:"output_len,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (d *daemon) jobView(j *cluster.Job, withOutput bool) jobJSON {
	v := jobJSON{ID: j.ID, Tenant: j.Tenant, Name: j.Name, State: j.State().String()}
	if withOutput {
		out, err := j.Await()
		v.State = j.State().String()
		if err != nil {
			v.Error = err.Error()
		} else {
			v.OutputSHA = fmt.Sprintf("%x", sha256.Sum256(out))
			v.OutputLen = len(out)
		}
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant, app := q.Get("tenant"), q.Get("app")
	if tenant == "" || app == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "tenant and app are required"})
		return
	}
	mode := engine.Gerenuk
	if m := q.Get("mode"); m != "" {
		switch m {
		case "gerenuk":
			mode = engine.Gerenuk
		case "baseline":
			mode = engine.Baseline
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "mode must be gerenuk or baseline"})
			return
		}
	}

	seed, err := intParam(q, "chaos")
	if err != nil {
		badRequest(w, err)
		return
	}
	mem, err := intParam(q, "memory")
	if err != nil {
		badRequest(w, err)
		return
	}
	cfg := d.base
	if seed != 0 {
		// Deterministic fault plan for just this submission — the chaos
		// tenant's outputs must stay byte-identical to its calm runs.
		cfg.Injector = faults.Chaos(seed)
	}
	if d.gcAttr != nil {
		// Charge real GC pauses at every stage boundary to this
		// submission's tenant, so /metrics answers "whose jobs are eating
		// the pause budget".
		gc, tn := d.gcAttr, tenant
		cfg.StageHook = func(app string, m engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
			stats.GCAttributed += gc.StageEndTenant(tn, app, m.String(), stage)
		}
	}
	spec, err := bench.ClusterJob(app, cfg, mode)
	if err != nil {
		badRequest(w, err)
		return
	}
	if mem > 0 {
		spec.MemoryBytes = mem
	}

	j, err := d.svc.Submit(tenant, spec)
	if err != nil {
		var rej *cluster.AdmissionError
		switch {
		case errors.As(err, &rej):
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error": err.Error(), "reason": rej.Reason, "tenant": rej.Tenant})
		case errors.Is(err, cluster.ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		}
		return
	}
	d.mu.Lock()
	d.jobs[j.ID] = j
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, d.jobView(j, q.Get("wait") == "1"))
}

func (d *daemon) lookup(w http.ResponseWriter, r *http.Request) *cluster.Job {
	id := r.URL.Query().Get("id")
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id " + id})
	}
	return j
}

func (d *daemon) handleAwait(w http.ResponseWriter, r *http.Request) {
	if j := d.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, d.jobView(j, true))
	}
}

func (d *daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := d.lookup(w, r); j != nil {
		dequeued := j.Cancel()
		writeJSON(w, http.StatusOK, map[string]any{
			"id": j.ID, "dequeued": dequeued, "state": j.State().String()})
	}
}

func (d *daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	views := make([]jobJSON, 0, len(d.jobs))
	for _, j := range d.jobs {
		views = append(views, d.jobView(j, false))
	}
	d.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, views)
}

func (d *daemon) handleTenant(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "name is required"})
		return
	}
	weight, err := intParam(q, "weight")
	if err == nil && q.Has("weight") && weight < 1 {
		err = fmt.Errorf("weight must be at least 1, got %d", weight)
	}
	quota, qerr := intParam(q, "quota")
	depth, derr := intParam(q, "depth")
	if err = errors.Join(err, qerr, derr); err != nil {
		badRequest(w, err)
		return
	}
	// quota=-1 resets the tenant to unlimited (cluster.TenantConfig).
	d.svc.ConfigureTenant(name, cluster.TenantConfig{
		Weight: int(weight), QuotaBytes: quota, QueueDepth: int(depth)})
	writeJSON(w, http.StatusOK, map[string]string{"tenant": name, "status": "configured"})
}

// intParam parses an integer query parameter; an absent one reads 0.
func intParam(q url.Values, name string) (int64, error) {
	if !q.Has(name) {
		return 0, nil
	}
	n, err := strconv.ParseInt(q.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not an integer", name, q.Get(name))
	}
	return n, nil
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// post answers 405 to any method but POST: the endpoint changes state.
func post(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": r.URL.Path + " needs POST"})
			return
		}
		h(w, r)
	})
}

// routes mounts the submission API.
func (d *daemon) routes(mux interface{ Handle(string, http.Handler) }) {
	mux.Handle("/submit", post(d.handleSubmit))
	mux.Handle("/await", http.HandlerFunc(d.handleAwait))
	mux.Handle("/cancel", post(d.handleCancel))
	mux.Handle("/jobs", http.HandlerFunc(d.handleJobs))
	mux.Handle("/tenant", post(d.handleTenant))
	mux.Handle("/quitz", post(d.handleQuitz))
}

func (d *daemon) handleQuitz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	d.quitOnce.Do(func() { close(d.quit) })
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9478", "serve the submission API and observability plane on this address")
	workers := flag.Int("workers", 4, "bounded worker-pool size (concurrent jobs)")
	queueDepth := flag.Int("queue-depth", 64, "default per-tenant queued-job cap")
	quota := flag.Int64("quota", 0, "default per-tenant memory quota in bytes (0 = unlimited)")
	scale := flag.Int("scale", 1, "workload scale for submitted apps")
	workersPerJob := flag.Int("job-workers", 2, "executor pool size per job")
	partitions := flag.Int("partitions", 2, "RDD/shuffle partitions per job")
	iters := flag.Int("iters", 2, "iterations for iterative apps")
	heapName := flag.String("heap", "10GB", "executor heap size for Spark apps (10GB|15GB|20GB)")
	engineName := flag.String("engine", "compiled", "native execution backend: compiled or interp")
	breakerThreshold := flag.Int("breaker-threshold", 3, "de-speculate a (tenant,driver) after this many aborts (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "persist job checkpoints to this directory so a restarted service resumes them (\"\" = in-memory only)")
	traceOut := flag.String("trace", "", "stream Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics-json", "", "write metrics-registry JSON on shutdown")
	flag.Parse()

	backend, err := engine.ParseBackend(*engineName)
	if err != nil {
		fatal(err)
	}

	tr := trace.New()
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		if err := tr.StreamTo(f); err != nil {
			fatal(err)
		}
	}

	var breaker *engine.Breaker
	if *breakerThreshold > 0 {
		breaker = engine.NewBreaker(*breakerThreshold)
	}
	var ckpts *recovery.CheckpointStore
	if *ckptDir != "" {
		ckpts, err = recovery.OpenDiskCheckpointStore(*ckptDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gerenukd: checkpoints persist to %s (%d recovered)\n", *ckptDir, ckpts.Len())
	}
	svc := cluster.New(cluster.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		QuotaBytes:  *quota,
		Breaker:     breaker,
		Trace:       tr,
		Checkpoints: ckpts,
	})

	d := &daemon{
		svc: svc,
		base: bench.Config{
			Scale: *scale, Workers: *workersPerJob, Partitions: *partitions,
			Iters: *iters, HeapName: *heapName, Backend: backend, Trace: tr,
		},
		gcAttr: obs.NewGCAttributor(tr),
		jobs:   make(map[string]*cluster.Job),
		quit:   make(chan struct{}),
	}

	server := obs.NewServer(tr)
	server.AddStatus("cluster", func() any { return svc.Status() })
	d.routes(server)
	if err := server.Start(*addr); err != nil {
		fatal(err)
	}
	fmt.Printf("gerenukd: serving http://%s/{submit,await,jobs,tenant,quitz} + obs plane (workers=%d)\n",
		server.Addr(), *workers)

	<-d.quit
	fmt.Println("gerenukd: draining")
	svc.Close()

	if traceFile != nil {
		if err := tr.CloseStream(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("gerenukd: trace streamed to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := tr.WriteMetricsJSONFile(*metricsOut, map[string]any{"service": "gerenukd"}); err != nil {
			fatal(err)
		}
		fmt.Printf("gerenukd: metrics written to %s\n", *metricsOut)
	}
	server.Close()
	fmt.Println("gerenukd: bye")
}
