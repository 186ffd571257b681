package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// gateJob returns a job that signals `started` when dispatched and then
// blocks until `release` closes — the tool every scheduling test uses to
// hold the single worker while it arranges queue state.
func gateJob(started chan<- struct{}, release <-chan struct{}) JobSpec {
	return JobSpec{Name: "gate", Run: func(jc *JobContext) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("gate"), nil
	}}
}

func TestQuotaExceededRejected(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	svc.ConfigureTenant("alice", TenantConfig{QuotaBytes: 100})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	gate := gateJob(started, release)
	gate.MemoryBytes = 60
	g, err := svc.Submit("alice", gate)
	if err != nil {
		t.Fatal(err)
	}
	<-started // 60 of 100 bytes now reserved by a running job

	_, err = svc.Submit("alice", JobSpec{Name: "big", MemoryBytes: 50,
		Run: func(jc *JobContext) ([]byte, error) { return nil, nil }})
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("over-quota submit: %v, want ErrAdmissionRejected", err)
	}
	var rej *AdmissionError
	if !errors.As(err, &rej) || rej.Reason != "memory-quota" {
		t.Fatalf("rejection = %+v, want *AdmissionError{Reason: memory-quota}", err)
	}
	if rej.Tenant != "alice" || rej.NeedBytes != 50 || rej.ReservedBytes != 60 || rej.QuotaBytes != 100 {
		t.Fatalf("rejection detail = %+v", rej)
	}

	// A job that fits the remaining quota is admitted alongside.
	ok, err := svc.Submit("alice", JobSpec{Name: "small", MemoryBytes: 40,
		Run: func(jc *JobContext) ([]byte, error) { return []byte("ok"), nil }})
	if err != nil {
		t.Fatalf("within-quota submit rejected: %v", err)
	}

	close(release)
	if _, err := g.Await(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Await(); err != nil {
		t.Fatal(err)
	}

	// Completion released the reservations: the full quota is available
	// again.
	j, err := svc.Submit("alice", JobSpec{Name: "full", MemoryBytes: 100,
		Run: func(jc *JobContext) ([]byte, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("post-completion submit rejected: %v", err)
	}
	j.Await()
}

func TestQueueBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2})
	defer svc.Close()

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	g, err := svc.Submit("bob", gateJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	noop := JobSpec{Name: "n", Run: func(jc *JobContext) ([]byte, error) { return nil, nil }}
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit("bob", noop)
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	_, err = svc.Submit("bob", noop)
	var rej *AdmissionError
	if !errors.As(err, &rej) || rej.Reason != "queue-depth" {
		t.Fatalf("over-depth submit: %v, want queue-depth rejection", err)
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("rejection does not match sentinel: %v", err)
	}
	// Depth is per tenant: another tenant still gets in.
	j, err := svc.Submit("carol", noop)
	if err != nil {
		t.Fatalf("other tenant rejected by bob's backlog: %v", err)
	}

	close(release)
	g.Await()
	for _, q := range queued {
		q.Await()
	}
	j.Await()
}

// TestFairShareOrdering pins the SFQ dispatch sequence: with one worker,
// a saturating backlog from alice (weight 1) and queues from bob
// (weight 1) and carol (weight 2) all enqueued while the worker is held,
// carol must get two dispatch slots for each of bob's, and alice's
// backlog must not starve either.
func TestFairShareOrdering(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	svc.ConfigureTenant("carol", TenantConfig{Weight: 2})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, err := svc.Submit("alice", gateJob(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started // worker held; everything below queues up behind it

	var mu sync.Mutex
	var order []string
	recorder := func(tenant string) JobSpec {
		return JobSpec{Name: "r", Run: func(jc *JobContext) ([]byte, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}}
	}
	var jobs []*Job
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			j, err := svc.Submit(tenant, recorder(tenant))
			if err != nil {
				t.Fatalf("submit %s: %v", tenant, err)
			}
			jobs = append(jobs, j)
		}
	}
	submit("alice", 5)
	submit("bob", 2)
	submit("carol", 4)

	close(release)
	for _, j := range jobs {
		j.Await()
	}

	// Virtual times after the gate dispatch: alice 1 (she spent her slot
	// on the gate), bob 0, carol 0. From there SFQ with carol at weight 2
	// gives the exact sequence below (ties break by name).
	want := []string{"bob", "carol", "carol", "alice", "bob", "carol", "carol",
		"alice", "alice", "alice", "alice"}
	if got := strings.Join(order, ","); got != strings.Join(want, ",") {
		t.Fatalf("dispatch order\n got %s\nwant %s", got, strings.Join(want, ","))
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	svc.ConfigureTenant("dave", TenantConfig{QuotaBytes: 50})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	g, err := svc.Submit("dave", gateJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ran := false
	j, err := svc.Submit("dave", JobSpec{Name: "victim", MemoryBytes: 50,
		Run: func(jc *JobContext) ([]byte, error) { ran = true; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != Queued {
		t.Fatalf("state = %v, want Queued", j.State())
	}
	if !j.Cancel() {
		t.Fatal("Cancel of a queued job reported false")
	}
	if j.State() != Canceled {
		t.Fatalf("state after cancel = %v", j.State())
	}
	if _, err := j.Await(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Await after cancel: %v, want ErrCanceled", err)
	}
	if j.Cancel() {
		t.Fatal("second Cancel reported true")
	}

	// The canceled job's quota reservation must be gone.
	j2, err := svc.Submit("dave", JobSpec{Name: "after", MemoryBytes: 50,
		Run: func(jc *JobContext) ([]byte, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("quota still held by canceled job: %v", err)
	}

	close(release)
	g.Await()
	j2.Await()
	if ran {
		t.Fatal("canceled job ran anyway")
	}
}

func TestPanicContainedAndServiceSurvives(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	j, err := svc.Submit("eve", JobSpec{Name: "boom",
		Run: func(jc *JobContext) ([]byte, error) { panic("kaboom") }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Await(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panicking job Await: %v", err)
	}
	if j.State() != Failed {
		t.Fatalf("state = %v, want Failed", j.State())
	}
	ok, err := svc.Submit("eve", JobSpec{Name: "next",
		Run: func(jc *JobContext) ([]byte, error) { return []byte("alive"), nil }})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ok.Await(); err != nil || string(out) != "alive" {
		t.Fatalf("post-panic job: %q %v", out, err)
	}
}

func TestJobContextIsScoped(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	// Two concurrent jobs write the same checkpoint task key and register
	// the same exchange; the scoped views must keep them apart.
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	run := func(tenant, payload string) *Job {
		j, err := svc.Submit(tenant, JobSpec{Name: "scoped", Run: func(jc *JobContext) ([]byte, error) {
			if jc.Tenant != tenant {
				return nil, fmt.Errorf("tenant = %q", jc.Tenant)
			}
			jc.Checkpoints.Save("reduce-0", 1, []byte(payload))
			jc.Lineage.Register("shuffle-0", 0, func() error { return nil })
			<-barrier // both jobs have written before either reads
			ck, ok, _ := jc.Checkpoints.Load("reduce-0")
			if !ok || string(ck.Data) != payload {
				return nil, fmt.Errorf("checkpoint cross-talk: got %q want %q", ck.Data, payload)
			}
			if err := jc.Lineage.Rebuild("shuffle-0", 0); err != nil {
				return nil, err
			}
			return []byte(payload), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); j.Await() }()
		return j
	}
	a := run("alice", "alice-state")
	b := run("bob", "bob-state")
	// Let both reach the barrier, then release.
	time.Sleep(10 * time.Millisecond)
	close(barrier)
	wg.Wait()
	if _, err := a.Await(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Await(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsThenRejects(t *testing.T) {
	svc := New(Config{Workers: 2})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := svc.Submit("frank", JobSpec{Name: "drain",
			Run: func(jc *JobContext) ([]byte, error) { return []byte("x"), nil }})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	svc.Close()
	for i, j := range jobs {
		if out, err := j.Await(); err != nil || string(out) != "x" {
			t.Fatalf("job %d after Close: %q %v", i, out, err)
		}
	}
	if _, err := svc.Submit("frank", JobSpec{Name: "late",
		Run: func(jc *JobContext) ([]byte, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

func TestStatusSnapshot(t *testing.T) {
	// Latency quantiles come from the registry's histograms, so this test
	// needs a live tracer (everything else in the service is nil-tracer
	// safe).
	svc := New(Config{Workers: 1, Trace: trace.New()})
	defer svc.Close()
	svc.ConfigureTenant("grace", TenantConfig{Weight: 3, QuotaBytes: 1 << 20})
	j, err := svc.Submit("grace", JobSpec{Name: "s", MemoryBytes: 1 << 10,
		Run: func(jc *JobContext) ([]byte, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	j.Await()
	sts := svc.Status()
	if len(sts) != 1 {
		t.Fatalf("Status len = %d", len(sts))
	}
	st := sts[0]
	if st.Tenant != "grace" || st.Weight != 3 || st.Done != 1 ||
		st.QuotaBytes != 1<<20 || st.ReservedBytes != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.P50LatencyNs <= 0 || st.P99LatencyNs < st.P50LatencyNs {
		t.Fatalf("latency quantiles = p50 %v p99 %v", st.P50LatencyNs, st.P99LatencyNs)
	}
}

// TestFinishedJobLineageIsCollected: a job's lineage registry must not
// outlive the job. The producer closure retains a buffer whose
// finalizer fires only once nothing references the closure any more.
func TestFinishedJobLineageIsCollected(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	collected := make(chan struct{})
	j, err := svc.Submit("alice", JobSpec{Name: "lineage", Run: func(jc *JobContext) ([]byte, error) {
		buf := make([]byte, 1<<20)
		runtime.SetFinalizer(&buf[0], func(*byte) { close(collected) })
		jc.Lineage.Register("shuffle-0", 0, func() error { buf[0]++; return nil })
		return []byte("done"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Await(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished job's lineage closure is still reachable after 5s")
		}
	}
}
