package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the end-to-end measurement forks it.
func TestMain(m *testing.M) {
	if spec := os.Getenv(forkEnv); spec != "" {
		os.Exit(runFork(spec))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSelf runs every workload of BENCHMARK.json on tiny inputs, with
// tracing off and on, and checks that every output matched its oracle
// and that the report holds exactly the metrics the file names, each
// with its unit.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(w.Name, 3, 2*time.Second, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s",
						w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestPathsBypassed checks, on tiny inputs, the layers each workload
// exists to exercise or bypass: batch spills and never runs the heap
// path, stream syncs incremental shuffles and never runs the heap path,
// tenants runs it, aborts native attempts and queues jobs. Tenants runs
// for 6 reference seconds, so that its paced arrivals include every
// kind of job several times, also where the race detector slows the
// program and the calibration kernel, and with it the pace.
func TestPathsBypassed(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	layers := map[string]map[string]metric{}
	for _, w := range []string{"batch", "stream", "tenants"} {
		d := 2 * time.Second
		if w == "tenants" {
			var c clock
			c.sample()
			d = c.wall(6 * time.Second)
		}
		rep, err := run(w, 5, d, true, true)
		if err != nil {
			t.Fatal(err)
		}
		layers[w] = rep.Metrics
	}
	for _, w := range []string{"batch", "stream"} {
		if v := layers[w]["heap.exec_ms"].Value; v != 0 {
			t.Errorf("%s: heap.exec_ms = %v, want 0", w, v)
		}
	}
	for _, name := range []string{"heap.exec_ms", "native.aborts", "cluster.queue_ms_p50"} {
		if v := layers["tenants"][name].Value; v <= 0 {
			t.Errorf("tenants: %s = %v, want > 0", name, v)
		}
	}
	if v := layers["stream"]["shuffle.syncs"].Value; v <= 0 {
		t.Errorf("stream: shuffle.syncs = %v, want > 0", v)
	}
	if v := layers["batch"]["shuffle.spills"].Value; v <= 0 {
		t.Errorf("batch: shuffle.spills = %v, want > 0", v)
	}
}

// TestTracedDivisorCoversLead checks that the traced half of a tenants
// measurement divides by every job its service ran. The service runs
// the lead's jobs with the same tracer, so their counts and spans are
// in the traced figures too.
func TestTracedDivisorCoversLead(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	r, _, cleanup, err := setUp("tenants", 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	tr := newTracing()
	got := r.measure(time.Second, tr)
	reg := tr.tracer().Registry()
	var submitted int64
	for _, tenant := range tenantNames {
		submitted += reg.Counter(trace.Name("cluster_jobs_submitted_total", "tenant", tenant)).Value()
	}
	if got.ran != submitted || got.ran <= int64(len(got.jobMs)) {
		t.Errorf("traced divisor %d, service ran %d jobs, %d of them after the lead",
			got.ran, submitted, len(got.jobMs))
	}
}
