// Package spark implements an in-process Spark-like dataflow engine over
// the Gerenuk execution layer: RDDs materialized as partitions of wire
// records, narrow stages that run one SER driver per partition
// (MapPartitions), hash shuffles with per-key folding (ReduceByKey),
// unique-key joins (JoinPairs), one-to-many joins (JoinMany) and Union.
//
// Each stage exhibits exactly the Figure-1 dataflow the paper builds on:
// a task starts by reading records (deserialization point), pipes them
// through IR UDFs, and ends by emitting records (serialization point).
// In Baseline mode the stage driver runs on the simulated managed heap;
// in Gerenuk mode the transformed driver runs over native buffers, with
// abort-and-re-execute handled by the engine executor.
package spark

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

// Context is a "SparkContext": configuration plus accumulated job stats.
type Context struct {
	// Policy is the execution policy every stage and shuffle of the
	// context runs under (retries, hedging, watchdog, chaos, tracing,
	// recovery stores, cancellation).
	engine.Policy

	C          *engine.Compiled
	Mode       engine.Mode
	Workers    int
	Partitions int
	HeapCfg    heap.Config
	// ClosureBytes is the simulated per-task closure shipping size.
	ClosureBytes int
	// AbortAfterRecords forces speculative aborts in every Gerenuk task
	// (Figure 10(b)); 0 disables.
	AbortAfterRecords int64
	// ForcedAbortBudget forces an abort in up to N tasks (one abort per
	// task) and then stops — the Figure 10(b) "k forced aborts" knob.
	ForcedAbortBudget int

	// CheckpointEvery persists each task's fold state every N completed
	// invocations, so a killed attempt resumes from its last checkpoint
	// instead of restarting (0 = off).
	CheckpointEvery int
	// OnStage, when set, observes every stage boundary: it runs after
	// the stage's pool drains but before its stats fold into the
	// context, so the hook may enrich stats (the observability plane
	// charges real GC pause time here) and the enrichment lands in the
	// job totals. stats is the stage's own breakdown, wall its
	// wall-clock time.
	OnStage func(stage string, stats *metrics.Breakdown, wall time.Duration)
	// Shuffle configures the exchange every wide operation routes
	// through: memory budget (spill threshold), block compression,
	// simulated transport, fetch retry/breaker policy. Partitions,
	// Trace, Lineage and (when unset) Injector and Jitter are filled
	// from the context per shuffle.
	Shuffle shuffle.Config

	Stats  metrics.Breakdown
	Wall   time.Duration
	Stages int
	Tasks  int

	shuffleStore *shuffle.Store
	shuffleSeq   int
}

// NewContext creates a context with sane defaults.
func NewContext(c *engine.Compiled, mode engine.Mode) *Context {
	return &Context{
		C: c, Mode: mode, Workers: 4, Partitions: 4,
		HeapCfg:      heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20},
		ClosureBytes: 4 << 10,
	}
}

// RDD is a materialized distributed dataset: wire-record partitions.
type RDD struct {
	ctx   *Context
	Class string
	Parts [][]byte
}

// Parallelize creates an RDD from pre-encoded wire partitions.
func (ctx *Context) Parallelize(class string, parts [][]byte) *RDD {
	return &RDD{ctx: ctx, Class: class, Parts: parts}
}

// Count returns the number of records across partitions.
func (r *RDD) Count() int {
	n := 0
	for _, p := range r.Parts {
		n += len(engine.RecordOffsets(p))
	}
	return n
}

// CollectBytes concatenates all partitions' wire records.
func (r *RDD) CollectBytes() []byte {
	var out []byte
	for _, p := range r.Parts {
		out = append(out, p...)
	}
	return out
}

// abortKnob returns the per-task forced-abort setting, consuming the
// budget when one is configured.
func (ctx *Context) abortKnob() int64 {
	if ctx.AbortAfterRecords > 0 {
		return ctx.AbortAfterRecords
	}
	if ctx.ForcedAbortBudget > 0 {
		ctx.ForcedAbortBudget--
		return 1
	}
	return 0
}

func (ctx *Context) runStage(name string, specs []engine.TaskSpec) ([][]byte, error) {
	// Compile before the stage clock starts; RunStage's own compile is
	// then a cache hit.
	if err := ctx.C.CompileDriver(specs[0].Driver); err != nil {
		return nil, fmt.Errorf("spark: compiling %s: %w", specs[0].Driver, err)
	}
	stage := ctx.Trace.StartSpan("stage", name,
		trace.Str("mode", ctx.Mode.String()), trace.I64("tasks", int64(len(specs))))
	start := time.Now()
	job, err := engine.RunStage(&ctx.Policy, engine.Stage{Name: name, C: ctx.C, Mode: ctx.Mode,
		Workers: ctx.Workers, HeapCfg: ctx.HeapCfg, CheckpointEvery: ctx.CheckpointEvery, Specs: specs})
	// RunStage returns partial results alongside a job error; fold them
	// into the context either way so a failed stage's completed tasks
	// still show up in the accounting.
	if job != nil {
		wall := time.Since(start)
		ctx.Wall += wall
		if ctx.OnStage != nil {
			ctx.OnStage(name, &job.Stats, wall)
		}
		ctx.Stats.Add(job.Stats)
		ctx.Stages++
		ctx.Tasks += len(specs)
	}
	if err != nil {
		stage.End(trace.Str("outcome", "error"))
		return nil, fmt.Errorf("spark: stage %s: %w", name, err)
	}
	stage.End(trace.Str("outcome", "ok"))
	return job.Outputs, nil
}

// MapPartitions runs the named stage driver once per partition. The
// driver owns the whole narrow pipeline of the stage (map/flatMap/filter
// fused), reading records from source "in" and emitting outputs.
func (r *RDD) MapPartitions(driver, outClass string) (*RDD, error) {
	specs := make([]engine.TaskSpec, len(r.Parts))
	for i, p := range r.Parts {
		specs[i] = engine.TaskSpec{
			Name:   fmt.Sprintf("%s-p%d", driver, i),
			Driver: driver,
			Invocations: []map[string]engine.Input{
				{"in": {Class: r.Class, Buf: p}},
			},
			ClosureBytes:      r.ctx.ClosureBytes,
			AbortAfterRecords: r.ctx.abortKnob(),
		}
	}
	outs, err := r.ctx.runStage(driver, specs)
	if err != nil {
		return nil, err
	}
	return &RDD{ctx: r.ctx, Class: outClass, Parts: outs}, nil
}

// shuffle routes every wide operation through the exchange subsystem:
// one map-side writer per input partition (hash-partitioning, budgeted
// buffering with sorted spills, optional compression) and a fetch pass
// assembling the Partitions reduce-side blocks over the simulated
// transport. In Baseline mode the exchange pays real serde per record
// crossing it; in Gerenuk mode native bytes cross untouched and the
// fetched blocks are Owned — adopted zero-copy by the reduce tasks.
// The exchange validates the key field up front, so a missing key field
// errors even when every partition is empty.
func (r *RDD) shuffle(keyField string) ([][]byte, error) {
	ctx := r.ctx
	start := time.Now()
	defer func() { ctx.Stats.Total += time.Since(start) }()
	var codec *serde.Codec
	if ctx.Mode == engine.Baseline {
		codec = ctx.C.Codec
	}
	if ctx.shuffleStore == nil {
		ctx.shuffleStore = shuffle.NewStore()
	}
	ctx.shuffleSeq++
	name := fmt.Sprintf("shuffle-%d-%s.%s", ctx.shuffleSeq, r.Class, keyField)
	ex, err := shuffle.NewExchange(ctx.shuffleStore, ctx.Shuffle.ForPolicy(&ctx.Policy, ctx.Partitions),
		name, ctx.C.Layouts, r.Class, keyField, codec)
	if err != nil {
		return nil, fmt.Errorf("spark: %w", err)
	}
	for i, p := range r.Parts {
		if err := ex.WriteMap(i, p); err != nil {
			return nil, fmt.Errorf("spark: %w", err)
		}
	}
	blocks, err := ex.Fetch(&ctx.Policy)
	if err != nil {
		return nil, fmt.Errorf("spark: %w", err)
	}
	ex.Stats().AddTo(&ctx.Stats)
	return blocks, nil
}

// ReduceByKey shuffles by keyField and folds each key group through the
// named combine driver (built by BuildReduceDriver), producing one record
// per key.
func (r *RDD) ReduceByKey(combineDriver, keyField string) (*RDD, error) {
	blocks, err := r.shuffle(keyField)
	if err != nil {
		return nil, err
	}
	var specs []engine.TaskSpec
	for i, block := range blocks {
		_, groups, err := engine.GroupByKey(r.ctx.C.Layouts, r.Class, keyField, block)
		if err != nil {
			return nil, err
		}
		invocations := make([]map[string]engine.Input, 0, len(groups))
		for _, offs := range groups {
			invocations = append(invocations, map[string]engine.Input{
				"in": {Class: r.Class, Buf: block, Offs: offs, Owned: true},
			})
		}
		if len(invocations) == 0 {
			continue
		}
		specs = append(specs, engine.TaskSpec{
			Name:              fmt.Sprintf("%s-r%d", combineDriver, i),
			Driver:            combineDriver,
			Invocations:       invocations,
			ClosureBytes:      r.ctx.ClosureBytes,
			AbortAfterRecords: r.ctx.abortKnob(),
		})
	}
	if len(specs) == 0 {
		return &RDD{ctx: r.ctx, Class: r.Class, Parts: nil}, nil
	}
	outs, err := r.ctx.runStage(combineDriver, specs)
	if err != nil {
		return nil, err
	}
	return &RDD{ctx: r.ctx, Class: r.Class, Parts: outs}, nil
}

// Union concatenates two RDDs of the same class partition-wise.
func (r *RDD) Union(other *RDD) (*RDD, error) {
	if r.Class != other.Class {
		return nil, fmt.Errorf("spark: union of %s with %s", r.Class, other.Class)
	}
	n := len(r.Parts)
	if len(other.Parts) > n {
		n = len(other.Parts)
	}
	parts := make([][]byte, n)
	for i := range parts {
		if i < len(r.Parts) {
			parts[i] = append(parts[i], r.Parts[i]...)
		}
		if i < len(other.Parts) {
			parts[i] = append(parts[i], other.Parts[i]...)
		}
	}
	return &RDD{ctx: r.ctx, Class: r.Class, Parts: parts}, nil
}

// JoinPairs hash-joins two RDDs that each hold at most one record per
// key (the PageRank links-with-ranks shape), running the named join
// driver per matched key. The driver reads one record from "left" and
// one from "right" and emits outputs. leftKey/rightKey name the key
// field on each side.
func (r *RDD) JoinPairs(other *RDD, joinDriver, leftKey, rightKey, outClass string) (*RDD, error) {
	lBlocks, err := r.shuffle(leftKey)
	if err != nil {
		return nil, err
	}
	rBlocks, err := other.shuffle(rightKey)
	if err != nil {
		return nil, err
	}
	var specs []engine.TaskSpec
	for i := range lBlocks {
		lKeys, lGroups, err := engine.GroupByKey(r.ctx.C.Layouts, r.Class, leftKey, lBlocks[i])
		if err != nil {
			return nil, err
		}
		rIndex := make(map[string][]int)
		rKeys, rGroups, err := engine.GroupByKey(other.ctx.C.Layouts, other.Class, rightKey, rBlocks[i])
		if err != nil {
			return nil, err
		}
		for k, key := range rKeys {
			rIndex[string(key)] = rGroups[k]
		}
		var invocations []map[string]engine.Input
		for k, key := range lKeys {
			ro, ok := rIndex[string(key)]
			if !ok {
				continue
			}
			if len(lGroups[k]) != 1 || len(ro) != 1 {
				return nil, fmt.Errorf("spark: JoinPairs requires unique keys (key has %d left, %d right)",
					len(lGroups[k]), len(ro))
			}
			invocations = append(invocations, map[string]engine.Input{
				"left":  {Class: r.Class, Buf: lBlocks[i], Offs: lGroups[k], Owned: true},
				"right": {Class: other.Class, Buf: rBlocks[i], Offs: ro, Owned: true},
			})
		}
		if len(invocations) == 0 {
			continue
		}
		specs = append(specs, engine.TaskSpec{
			Name:              fmt.Sprintf("%s-j%d", joinDriver, i),
			Driver:            joinDriver,
			Invocations:       invocations,
			ClosureBytes:      r.ctx.ClosureBytes,
			AbortAfterRecords: r.ctx.abortKnob(),
		})
	}
	if len(specs) == 0 {
		return &RDD{ctx: r.ctx, Class: outClass, Parts: nil}, nil
	}
	outs, err := r.ctx.runStage(joinDriver, specs)
	if err != nil {
		return nil, err
	}
	return &RDD{ctx: r.ctx, Class: outClass, Parts: outs}, nil
}

// JoinMany hash-joins a unique-keyed left RDD against a right RDD with
// repeated keys (the exploded-edge-table shape of DataFrame PageRank):
// per key, the driver reads the single left record and streams all right
// records through the UDF.
func (r *RDD) JoinMany(other *RDD, joinDriver, leftKey, rightKey, outClass string) (*RDD, error) {
	lBlocks, err := r.shuffle(leftKey)
	if err != nil {
		return nil, err
	}
	rBlocks, err := other.shuffle(rightKey)
	if err != nil {
		return nil, err
	}
	var specs []engine.TaskSpec
	for i := range lBlocks {
		lKeys, lGroups, err := engine.GroupByKey(r.ctx.C.Layouts, r.Class, leftKey, lBlocks[i])
		if err != nil {
			return nil, err
		}
		rIndex := make(map[string][]int)
		rKeys, rGroups, err := engine.GroupByKey(other.ctx.C.Layouts, other.Class, rightKey, rBlocks[i])
		if err != nil {
			return nil, err
		}
		for k, key := range rKeys {
			rIndex[string(key)] = rGroups[k]
		}
		var invocations []map[string]engine.Input
		for k, key := range lKeys {
			ro, ok := rIndex[string(key)]
			if !ok {
				continue
			}
			if len(lGroups[k]) != 1 {
				return nil, fmt.Errorf("spark: JoinMany requires unique left keys (%d found)", len(lGroups[k]))
			}
			invocations = append(invocations, map[string]engine.Input{
				"left":  {Class: r.Class, Buf: lBlocks[i], Offs: lGroups[k], Owned: true},
				"right": {Class: other.Class, Buf: rBlocks[i], Offs: ro, Owned: true},
			})
		}
		if len(invocations) == 0 {
			continue
		}
		specs = append(specs, engine.TaskSpec{
			Name:              fmt.Sprintf("%s-jm%d", joinDriver, i),
			Driver:            joinDriver,
			Invocations:       invocations,
			ClosureBytes:      r.ctx.ClosureBytes,
			AbortAfterRecords: r.ctx.abortKnob(),
		})
	}
	if len(specs) == 0 {
		return &RDD{ctx: r.ctx, Class: outClass, Parts: nil}, nil
	}
	outs, err := r.ctx.runStage(joinDriver, specs)
	if err != nil {
		return nil, err
	}
	return &RDD{ctx: r.ctx, Class: outClass, Parts: outs}, nil
}

// ---- driver templates (the "system code" of each stage) ----

// BuildMapDriver generates the canonical map-stage driver: read each
// record from source "in" and call the UDF, which emits 0..n outputs.
//
//	rec = readObject(in)
//	while rec != 0 { udf(rec); rec = readObject(in) }
func BuildMapDriver(prog *ir.Program, name, udf, inClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	rec := b.Local("rec", model.Object(inClass))
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		b.CallV(udf, rec)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.Ret(nil)
	return b.Done()
}

// BuildReduceDriver generates the per-key-group fold driver:
//
//	acc = readObject(in)
//	rec = readObject(in)
//	while rec != 0 { acc = combine(acc, rec); rec = readObject(in) }
//	writeObject(acc)
//
// combine must be a (T, T) -> T function constructing a fresh record.
func BuildReduceDriver(prog *ir.Program, name, combine, class string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	acc := b.Local("acc", model.Object(class))
	rec := b.Local("rec", model.Object(class))
	b.Emit(&ir.Deserialize{Dst: acc, Source: "in"})
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		nacc := b.Call(combine, model.Object(class), acc, rec)
		b.Assign(acc, nacc)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.WriteRecord("out", acc)
	b.Ret(nil)
	return b.Done()
}

// BuildJoinManyDriver generates the one-to-many join driver:
//
//	l = readObject(left)
//	r = readObject(right)
//	while r != 0 { udf(l, r); r = readObject(right) }
func BuildJoinManyDriver(prog *ir.Program, name, udf, leftClass, rightClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	l := b.Local("l", model.Object(leftClass))
	r := b.Local("r", model.Object(rightClass))
	b.Emit(&ir.Deserialize{Dst: l, Source: "left"})
	b.If(ir.CmpNE, l, zero, func() {
		b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
		b.While(ir.CmpNE, r, zero, func() {
			b.CallV(udf, l, r)
			b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
		})
	}, nil)
	b.Ret(nil)
	return b.Done()
}

// BuildJoinDriver generates the paired-join driver:
//
//	l = readObject(left); r = readObject(right)
//	if l != 0 && r != 0 { udf(l, r) }
func BuildJoinDriver(prog *ir.Program, name, udf, leftClass, rightClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	l := b.Local("l", model.Object(leftClass))
	r := b.Local("r", model.Object(rightClass))
	b.Emit(&ir.Deserialize{Dst: l, Source: "left"})
	b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
	b.If(ir.CmpNE, l, zero, func() {
		b.If(ir.CmpNE, r, zero, func() {
			b.CallV(udf, l, r)
		}, nil)
	}, nil)
	b.Ret(nil)
	return b.Done()
}
