// Package hadoop implements an in-process MapReduce engine over the
// Gerenuk execution layer: map tasks over input splits, map-side sort
// and optional combining (the paper's IMC workload), a hash partition to
// reducers, and reduce tasks that fold key groups.
//
// As in internal/spark, each task is one speculative execution region:
// the map driver spans WritableDeserializer.deserialize (the paper's
// Hadoop deserialization point) to the shuffle write, and the reduce
// driver spans the shuffle read to IFile.append.
package hadoop

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

// JobConf configures one MapReduce job.
type JobConf struct {
	// Policy is the execution policy every phase and the shuffle of the
	// job run under (retries, hedging, watchdog, chaos, tracing, recovery
	// stores, cancellation). The job span carries the job's phase spans
	// and the per-task spans every executor emits.
	engine.Policy

	Name string
	// MapDriver reads records of InClass from source "in" and emits
	// MapOutClass records.
	MapDriver string
	// CombineDriver, if set, folds each key group of the map output
	// before the shuffle (in-map combining). Must be a reduce-style
	// driver over MapOutClass.
	CombineDriver string
	// ReduceDriver folds each key group on the reduce side, emitting
	// OutClass records.
	ReduceDriver string

	InClass     string
	MapOutClass string
	OutClass    string
	KeyField    string

	Reducers int
	Workers  int
	Mode     engine.Mode
	// MapHeap and ReduceHeap size the per-task heaps (the paper gives
	// mappers and reducers different heaps).
	MapHeap    heap.Config
	ReduceHeap heap.Config
	// EpochPerTask wraps each task invocation in a Yak epoch (the
	// epoch_start/epoch_end in setup()/cleanup() of section 4.3).
	EpochPerTask bool
	ClosureBytes int

	// CheckpointEvery persists each task's fold state every N completed
	// invocations so a killed attempt resumes from its last checkpoint
	// instead of restarting (0 = off).
	CheckpointEvery int
	// OnStage, when set, observes each pooled phase (map, combine,
	// reduce) as it completes: it runs before the phase's stats fold
	// into the job result, so the hook may enrich stats (the
	// observability plane charges real GC pause time here) and the
	// enrichment lands in the job totals.
	OnStage func(stage string, stats *metrics.Breakdown, wall time.Duration)
	// Shuffle configures the exchange between mappers and reducers:
	// memory budget (spill threshold), block compression, simulated
	// transport, fetch retry/breaker policy, block replication.
	// Reducers, Trace, Lineage and (when unset) Injector and Jitter are
	// filled from the job conf.
	Shuffle shuffle.Config
}

func (c JobConf) withDefaults() JobConf {
	if c.Reducers <= 0 {
		c.Reducers = 4
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MapHeap.YoungSize == 0 {
		c.MapHeap = heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20}
	}
	if c.ReduceHeap.YoungSize == 0 {
		c.ReduceHeap = heap.Config{YoungSize: 128 << 10, OldSize: 3 << 20}
	}
	if c.ClosureBytes == 0 {
		c.ClosureBytes = 4 << 10
	}
	if c.EpochPerTask {
		c.MapHeap.Policy = heap.PolicyRegion
		c.ReduceHeap.Policy = heap.PolicyRegion
	}
	return c
}

// Result is the outcome of a job.
type Result struct {
	Out         []byte
	Stats       metrics.Breakdown
	Wall        time.Duration
	MapTasks    int
	ReduceTasks int
	// ShuffleBytes is the volume transferred from mappers to reducers
	// (after map-side combining, if any).
	ShuffleBytes int64
}

// Run executes the job over the given input splits.
func Run(c *engine.Compiled, conf JobConf, splits [][]byte) (*Result, error) {
	conf = conf.withDefaults()
	res := &Result{}
	start := time.Now()

	job := conf.Trace.StartSpan("job", conf.Name, trace.Str("mode", conf.Mode.String()))
	jobOutcome := "error"
	defer func() { job.End(trace.Str("outcome", jobOutcome)) }()

	for _, d := range []string{conf.MapDriver, conf.CombineDriver, conf.ReduceDriver} {
		if d == "" {
			continue
		}
		if err := c.CompileDriver(d); err != nil {
			return nil, fmt.Errorf("hadoop: compiling %s: %w", d, err)
		}
	}

	// ---- map phase ----
	mapSpecs := make([]engine.TaskSpec, len(splits))
	for i, split := range splits {
		mapSpecs[i] = engine.TaskSpec{
			Name:   fmt.Sprintf("%s-map%d", conf.Name, i),
			Driver: conf.MapDriver,
			Invocations: []map[string]engine.Input{
				{"in": {Class: conf.InClass, Buf: split}},
			},
			ClosureBytes:       conf.ClosureBytes,
			EpochPerInvocation: conf.EpochPerTask,
		}
	}
	mapStage := job.Child("stage", "map", trace.I64("tasks", int64(len(mapSpecs))))
	mapStart := time.Now()
	mapJob, err := conf.runPhase(c, "map", conf.MapHeap, mapSpecs)
	mapWall := time.Since(mapStart)
	mapStage.End()
	if mapJob != nil {
		if conf.OnStage != nil {
			conf.OnStage("map", &mapJob.Stats, mapWall)
		}
		// Partial accounting: even a failed phase's completed tasks count.
		res.Stats.Add(mapJob.Stats)
	}
	if err != nil {
		res.Wall = time.Since(start)
		return res, fmt.Errorf("hadoop: map phase: %w", err)
	}
	res.MapTasks = len(mapSpecs)

	// ---- map-side sort (+ optional combine) ----
	// Sorting serialized key-value pairs is framework work both modes
	// pay identically (Gerenuk does not change Hadoop's byte-level
	// sort); it is measured into the total like any other computation.
	sortStart := time.Now()
	sortSpan := job.Child("stage", "map-sort")
	mapOuts := mapJob.Outputs
	for i, out := range mapOuts {
		mapOuts[i] = engine.SortByKey(c, conf.MapOutClass, conf.KeyField, out)
	}
	sortSpan.End()
	res.Stats.Total += time.Since(sortStart)
	if conf.CombineDriver != "" {
		combStart := time.Now()
		combined, cjob, err := foldGroups(c, conf, conf.CombineDriver,
			conf.MapOutClass, mapOuts, conf.MapHeap, "combine", job, false)
		if cjob != nil {
			if conf.OnStage != nil {
				conf.OnStage("combine", &cjob.Stats, time.Since(combStart))
			}
			res.Stats.Add(cjob.Stats)
		}
		if err != nil {
			res.Wall = time.Since(start)
			return res, err
		}
		mapOuts = combined
	}

	// ---- shuffle: route map outputs through the exchange ----
	shufStart := time.Now()
	shufSpan := job.Child("stage", "shuffle")
	var codec *serde.Codec
	if conf.Mode == engine.Baseline {
		codec = c.Codec
	}
	ex, err := shuffle.NewExchange(shuffle.NewStore(), conf.Shuffle.ForPolicy(&conf.Policy, conf.Reducers),
		conf.Name+"-shuffle", c.Layouts, conf.MapOutClass, conf.KeyField, codec)
	if err != nil {
		res.Wall = time.Since(start)
		return res, fmt.Errorf("hadoop: shuffle: %w", err)
	}
	// Each map output is retained (sorted, combined) as its block
	// lineage: losing every replica re-runs just that writer.
	for i, out := range mapOuts {
		if err := ex.WriteMap(i, out); err != nil {
			res.Wall = time.Since(start)
			return res, fmt.Errorf("hadoop: shuffle: %w", err)
		}
	}
	blocks, err := ex.Fetch(&conf.Policy)
	if err != nil {
		res.Wall = time.Since(start)
		return res, fmt.Errorf("hadoop: shuffle: %w", err)
	}
	shufStats := ex.Stats()
	shufStats.AddTo(&res.Stats)
	res.Stats.Total += time.Since(shufStart)
	res.ShuffleBytes = shufStats.BytesFetched
	shufSpan.End(trace.I64("shuffle_bytes", res.ShuffleBytes),
		trace.I64("spills", shufStats.Spills))

	// ---- reduce phase: merge-sort each reducer's blocks and fold ----
	mergeStart := time.Now()
	mergeSpan := job.Child("stage", "merge-sort")
	for i := range blocks {
		blocks[i] = engine.SortByKey(c, conf.MapOutClass, conf.KeyField, blocks[i])
	}
	mergeSpan.End()
	res.Stats.Total += time.Since(mergeStart)
	reduceStart := time.Now()
	outs, rjob, err := foldGroups(c, conf, conf.ReduceDriver,
		conf.MapOutClass, blocks, conf.ReduceHeap, "reduce", job, true)
	if rjob != nil {
		if conf.OnStage != nil {
			conf.OnStage("reduce", &rjob.Stats, time.Since(reduceStart))
		}
		res.Stats.Add(rjob.Stats)
	}
	if err != nil {
		res.Wall = time.Since(start)
		return res, err
	}
	res.ReduceTasks = len(blocks)
	for _, o := range outs {
		res.Out = append(res.Out, o...)
	}
	res.Wall = time.Since(start)
	jobOutcome = "ok"
	return res, nil
}

// foldGroups runs a reduce-style driver once per key group of each block.
// owned marks the blocks as freshly assembled for their task alone (the
// reduce side's fetched-and-merge-sorted buffers), letting the native
// attempt adopt them into its arena zero-copy.
func foldGroups(c *engine.Compiled, conf JobConf, driver, class string,
	blocks [][]byte, heapCfg heap.Config, phase string, job *trace.Span, owned bool) ([][]byte, *engine.JobResult, error) {
	var specs []engine.TaskSpec
	var blockOf []int
	for i, block := range blocks {
		if len(block) == 0 {
			continue
		}
		_, groups, err := engine.GroupByKey(c.Layouts, class, conf.KeyField, block)
		if err != nil {
			return nil, nil, fmt.Errorf("hadoop: %s grouping: %w", phase, err)
		}
		invocations := make([]map[string]engine.Input, 0, len(groups))
		for _, offs := range groups {
			invocations = append(invocations, map[string]engine.Input{
				"in": {Class: class, Buf: block, Offs: offs, Owned: owned},
			})
		}
		specs = append(specs, engine.TaskSpec{
			Name:               fmt.Sprintf("%s-%s%d", conf.Name, phase, i),
			Driver:             driver,
			Invocations:        invocations,
			ClosureBytes:       conf.ClosureBytes,
			EpochPerInvocation: conf.EpochPerTask,
		})
		blockOf = append(blockOf, i)
	}
	outs := make([][]byte, len(blocks))
	if len(specs) == 0 {
		return outs, &engine.JobResult{}, nil
	}
	stage := job.Child("stage", phase, trace.I64("tasks", int64(len(specs))))
	result, err := conf.runPhase(c, phase, heapCfg, specs)
	stage.End()
	if err != nil {
		// result carries the partial accounting; the caller folds it in.
		return nil, result, fmt.Errorf("hadoop: %s phase: %w", phase, err)
	}
	for k, out := range result.Outputs {
		outs[blockOf[k]] = out
	}
	return outs, result, nil
}

// runPhase runs one pooled phase under the job's policy, guarded by
// the watchdog as "<job>/<phase>".
func (conf *JobConf) runPhase(c *engine.Compiled, phase string, heapCfg heap.Config,
	specs []engine.TaskSpec) (*engine.JobResult, error) {
	return engine.RunStage(&conf.Policy, engine.Stage{Name: conf.Name + "/" + phase, C: c,
		Mode: conf.Mode, Workers: conf.Workers, HeapCfg: heapCfg,
		CheckpointEvery: conf.CheckpointEvery, Specs: specs})
}
