package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/trace"
)

// Policy is the execution policy every driver (spark.Context,
// hadoop.JobConf, stream.Config) embeds: how tasks run, retry, hedge and
// recover, where they report, and which job they belong to. RunStage
// applies it to a pooled stage; the shuffle package applies it to an
// exchange.
type Policy struct {
	// Backend selects the native execution strategy for every executor:
	// closure-compiled chains (zero value) or the interpreter.
	Backend Backend
	// Breaker, when set, adaptively de-speculates drivers that keep
	// aborting; it is shared by every stage's executors. nil keeps the
	// paper's always-speculate semantics (Figure 10).
	Breaker *Breaker
	// Hedge, when enabled, races the untransformed heap attempt against
	// any native attempt that outlives the hedge delay (straggler
	// mitigation); the zero value keeps serial recovery.
	Hedge HedgeConfig
	// MaxAttempts and RetryBackoff configure the pool's task retry
	// policy (0 = engine defaults: 3 attempts, no backoff).
	MaxAttempts  int
	RetryBackoff time.Duration
	// Jitter randomizes task-retry and shuffle-fetch backoff with full
	// jitter; nil keeps the deterministic delay schedule.
	Jitter *Jitter
	// StageDeadline runs every stage and shuffle fetch under a watchdog:
	// a stage exceeding it is presumed hung, converted into a retryable
	// timeout, and re-executed once — checkpointed tasks resume where
	// they were (0 = no watchdog).
	StageDeadline time.Duration
	// Injector, when set, derives a deterministic fault plan for every
	// task and fetch (chaos testing); VerifyInputs arms the mutate-input
	// canary.
	Injector     *faults.Injector
	VerifyInputs bool
	// Trace, when set, receives the drivers' stage spans and the
	// task/attempt/phase spans of every executor.
	Trace *trace.Tracer
	// Tenant, when set, labels the per-task latency series the executors
	// emit into the trace registry.
	Tenant string
	// JobID, when set, namespaces the job's durable recovery state
	// (checkpoints, lineage): keys derived from task and exchange names
	// are scoped by it, so concurrent jobs sharing the stores below can
	// never serve each other's bytes. The cluster service sets it to the
	// submission ID.
	JobID string
	// Checkpoints and Lineage, when set, are the shared stores recovery
	// state persists to (scoped by JobID). nil keeps private stores.
	Checkpoints *recovery.CheckpointStore
	Lineage     *recovery.Lineage
	// Canceled, when set, is polled at every stage boundary and before
	// every shuffle fetch: once it is closed (cluster.Job.Cancel, a
	// stream shutdown) the next stage does not start and the job fails
	// with ErrCanceled. In-flight tasks drain; cancellation is
	// cooperative, never mid-record.
	Canceled <-chan struct{}
}

// Stores returns the job's checkpoint store and lineage registry: the
// shared ones scoped by JobID, or fresh private ones where none is
// shared. A private store lives as long as the caller keeps it.
func (p *Policy) Stores() (*recovery.CheckpointStore, *recovery.Lineage) {
	ckpts, lin := p.Checkpoints, p.Lineage
	if ckpts == nil {
		ckpts = recovery.NewCheckpointStore()
	}
	if lin == nil {
		lin = recovery.NewLineage()
	}
	if p.JobID != "" {
		ckpts, lin = ckpts.Scope(p.JobID), lin.Scope(p.JobID)
	}
	return ckpts, lin
}

// Guard runs fn under the stage watchdog (a plain call when
// StageDeadline is 0).
func (p *Policy) Guard(name string, fn func() (any, error)) (any, error) {
	return recovery.Watchdog{Deadline: p.StageDeadline, Trace: p.Trace}.Guard(name, fn)
}

// Stage is one pooled stage: its tasks plus the per-driver settings the
// policy does not carry.
type Stage struct {
	// Name is the name the watchdog guards the stage under.
	Name    string
	C       *Compiled
	Mode    Mode
	Workers int
	HeapCfg heap.Config
	// CheckpointEvery persists each task's fold state every N completed
	// invocations (0 = off).
	CheckpointEvery int
	Specs           []TaskSpec
}

// RunStage runs one stage under the policy: it polls for cancellation,
// compiles the stage's driver, binds fault plans and checkpointing to
// every task, and runs the pool under the stage watchdog. A stage whose
// deadline expires is presumed hung, not wrong: it is re-executed once
// as name#retry, and checkpointed tasks resume from their last
// persisted fold state. Partial results come back alongside a job
// error, so a failed stage's completed tasks still count. RunStage
// opens no spans and measures no time; callers own both.
func RunStage(p *Policy, st Stage) (*JobResult, error) {
	if err := Canceled(p.Canceled); err != nil {
		return nil, err
	}
	if len(st.Specs) == 0 {
		return &JobResult{}, nil
	}
	if err := st.C.CompileDriver(st.Specs[0].Driver); err != nil {
		return nil, fmt.Errorf("compiling %s: %w", st.Specs[0].Driver, err)
	}
	var ckpts *recovery.CheckpointStore
	if st.CheckpointEvery > 0 {
		ckpts, _ = p.Stores()
	}
	for i := range st.Specs {
		st.Specs[i].Faults = p.Injector.ForTask(st.Specs[i].Name)
		if ckpts != nil {
			st.Specs[i].CheckpointEvery = st.CheckpointEvery
			st.Specs[i].Checkpoints = ckpts
		}
	}
	// EnsureTrace is mutex-guarded: jobs sharing one breaker may reach
	// this line concurrently.
	p.Breaker.EnsureTrace(p.Trace)
	pool := &Pool{Workers: st.Workers, MaxAttempts: p.MaxAttempts,
		Backoff: p.RetryBackoff, Jitter: p.Jitter}
	exec := func() *Executor {
		return &Executor{C: st.C, Mode: st.Mode, HeapCfg: st.HeapCfg,
			Backend: p.Backend, Breaker: p.Breaker, VerifyInputs: p.VerifyInputs,
			Hedge: p.Hedge, Trace: p.Trace, Tenant: p.Tenant}
	}
	run := func() (any, error) { return pool.Run(exec, st.Specs) }
	res, err := p.Guard(st.Name, run)
	if errors.Is(err, recovery.ErrStageTimeout) {
		res, err = p.Guard(st.Name+"#retry", run)
	}
	job, _ := res.(*JobResult)
	return job, err
}

// SortByKey rebuilds buf with its records stably sorted by canonical key
// bytes — the map-side sort and reduce-side merge both modes pay,
// mirroring Hadoop's in-memory sort of serialized key-value pairs.
// Same-key records keep their order, so folds over the result are
// deterministic.
func SortByKey(c *Compiled, class, field string, buf []byte) []byte {
	offs := RecordOffsets(buf)
	keys := make([]string, len(offs))
	for i, off := range offs {
		k, err := KeyOf(c.Layouts, class, field, buf, off)
		if err != nil {
			// Sorting is engine machinery; schema errors here are bugs.
			panic(fmt.Sprintf("engine: SortByKey: %v", err))
		}
		keys[i] = string(k)
	}
	idx := make([]int, len(offs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]byte, 0, len(buf))
	for _, i := range idx {
		off := offs[i]
		out = append(out, buf[off:off+serde.RecordSize(buf, off)]...)
	}
	return out
}
