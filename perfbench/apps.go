package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/hadoop"
	"repro/internal/heap"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/spark"
	"repro/internal/trace"
	"repro/internal/workload"
)

// partitions is the input split and shuffle partition count of every
// batch job.
const partitions = 4

// sparkApp describes one Spark program: the classes its program
// registers, the class and generator of its input, and how to run it
// and render its result as canonical bytes.
type sparkApp struct {
	types   []string
	inClass string
	gen     func(size int, seed int64) []serde.Obj
	run     func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error)
}

var sparkApps = map[string]sparkApp{
	"PR": {
		types:   []string{sparkapps.ClsLinks, sparkapps.ClsRank, sparkapps.ClsContrib},
		inClass: sparkapps.ClsLinks,
		gen: func(size int, seed int64) []serde.Obj {
			return workload.LinksObjs(workload.GenGraph(workload.GraphSpec{
				Name: "LiveJournal", Vertices: 150 * size, AvgDeg: 6, Alpha: 2.3, Seed: seed}))
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			pr := sparkapps.PageRank{Iters: 2}
			pr.Register(comp.Prog)
			ranks, err := pr.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			return ranks.CollectBytes(), nil
		},
	},
	"KM": {
		types:   []string{sparkapps.ClsDenseVector, sparkapps.ClsClusterStat},
		inClass: sparkapps.ClsDenseVector,
		gen: func(size int, seed int64) []serde.Obj {
			points, _ := workload.GenDensePoints(120*size, 8, 4, seed)
			return points
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			km := sparkapps.KMeans{K: 4, Dim: 8, Iters: 2}
			km.Register(comp.Prog)
			initial := make([][]float64, 4)
			for j := range initial {
				c := make([]float64, 8)
				for d := range c {
					c[d] = float64(25 * (j + 1))
				}
				initial[j] = c
			}
			centers, err := km.Run(ctx, in, initial)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			for _, c := range centers {
				fmt.Fprintf(&buf, "%v\n", c)
			}
			return buf.Bytes(), nil
		},
	},
	"LR": {
		types:   []string{sparkapps.ClsLabeled, sparkapps.ClsGrad},
		inClass: sparkapps.ClsLabeled,
		gen: func(size int, seed int64) []serde.Obj {
			points, _ := workload.GenLabeledPoints(150*size, 10, seed)
			return points
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			lr := sparkapps.LogReg{Dim: 10, Iters: 2, Rate: 0.5}
			lr.Register(comp.Prog)
			weights, err := lr.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("%v\n", weights)), nil
		},
	},
	"CS": {
		types:   []string{sparkapps.ClsSparsePoint, sparkapps.ClsFeatObs},
		inClass: sparkapps.ClsSparsePoint,
		gen: func(size int, seed int64) []serde.Obj {
			return workload.GenSparsePoints(200*size, 28, 6, seed)
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			cs := sparkapps.ChiSqSelector{Dim: 28}
			cs.Register(comp.Prog)
			stats, err := cs.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			feats := make([]int64, 0, len(stats))
			for f := range stats {
				feats = append(feats, f)
			}
			sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
			var buf bytes.Buffer
			for _, f := range feats {
				fmt.Fprintf(&buf, "%d=%v\n", f, stats[f])
			}
			return buf.Bytes(), nil
		},
	},
	"GB": {
		types:   []string{sparkapps.ClsLabeled, sparkapps.ClsSplitStat},
		inClass: sparkapps.ClsLabeled,
		gen: func(size int, seed int64) []serde.Obj {
			points, _ := workload.GenLabeledPoints(150*size, 8, seed)
			return points
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			gb := sparkapps.GBoost{Dim: 8, Rounds: 2, Buckets: 8, Shrinkage: 0.5, Range: 4}
			gb.Register(comp.Prog)
			model, err := gb.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			for _, stump := range model {
				fmt.Fprintf(&buf, "%+v\n", stump)
			}
			return buf.Bytes(), nil
		},
	},
	// SOA is the paper's section 4.4 application: its combine resizes
	// the vectors of heavy users, a violation that really aborts.
	"SOA": {
		types:   []string{sparkapps.ClsPost, sparkapps.ClsAccount},
		inClass: sparkapps.ClsPost,
		gen: func(size int, seed int64) []serde.Obj {
			return workload.GenPosts(64*size, 5, seed)
		},
		run: func(ctx *spark.Context, comp *engine.Compiled, in *spark.RDD) ([]byte, error) {
			// Heavy users post about five times the average: their
			// vectors outgrow this capacity, the others' do not.
			soa := sparkapps.StackOverflowAnalytics{InitialCap: 8}
			soa.Register(comp.Prog)
			accounts, err := soa.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			return accounts.CollectBytes(), nil
		},
	},
}

// sparkNames and hadoopNames list the paper's Table 1 and Table 2
// programs in paper order.
var (
	sparkNames  = []string{"PR", "KM", "LR", "CS", "GB"}
	hadoopNames = hadoopapps.AllApps
)

// hadoopInput generates the records of a Table 2 program's dataset.
func hadoopInput(app string, size int, seed int64) (string, []serde.Obj) {
	switch hadoopapps.Dataset(app) {
	case "stackoverflow-users":
		return hadoopapps.ClsUser, workload.GenUsers(300*size, seed)
	case "stackoverflow-posts":
		return hadoopapps.ClsPost, workload.GenPosts(80*size, 5, seed)
	default:
		return hadoopapps.ClsDoc, workload.GenDocs(40*size, 30, seed)
	}
}

// appInput is one program's pre-encoded input partitions and its
// oracle: the baseline-mode output over the same partitions, exchanged
// in memory.
type appInput struct {
	app    string
	parts  [][]byte
	oracle []byte
	// spillBudget is the map-side shuffle budget of a Table 2 program:
	// half of an average map task's output, so that map tasks spill.
	spillBudget int64
}

// newCompiled builds and compiles a fresh program for app, returning
// the Hadoop job template too for Table 2 programs.
func newCompiled(app string) (*engine.Compiled, hadoop.JobConf) {
	if sa, ok := sparkApps[app]; ok {
		return engine.Compile(sparkapps.NewProgram(sa.types...)), hadoop.JobConf{}
	}
	prog, conf := hadoopapps.NewProgram(app)
	return engine.Compile(prog), conf
}

// genInput generates app's records from seed and encodes them into
// partitions.
func genInput(app string, size int, seed int64) (*appInput, error) {
	var class string
	var objs []serde.Obj
	if sa, ok := sparkApps[app]; ok {
		class, objs = sa.inClass, sa.gen(size, seed)
	} else {
		class, objs = hadoopInput(app, size, seed)
	}
	comp, _ := newCompiled(app)
	parts, err := workload.Encode(comp.Codec, class, objs, partitions)
	if err != nil {
		return nil, fmt.Errorf("encoding %s input: %w", app, err)
	}
	return &appInput{app: app, parts: parts}, nil
}

// jobEnv is what one job run threads into its driver besides the
// input: the execution mode, the tracer, the shuffle configuration, and
// the cluster service's scoped shared state when it runs as a service
// job.
type jobEnv struct {
	mode  engine.Mode
	trace *trace.Tracer
	// hadoopShuffle is the exchange configuration of Table 2 jobs:
	// with a spill directory set, map tasks spill there under the
	// input's spill budget. Spark jobs keep the in-memory exchange.
	hadoopShuffle shuffle.Config

	tenant, jobID string
	breaker       *engine.Breaker
	checkpoints   *recovery.CheckpointStore
	lineage       *recovery.Lineage
	canceled      <-chan struct{}
}

// jobResult is one job's output bytes, cost breakdown and the wall time
// of each of its stages.
type jobResult struct {
	out    []byte
	stats  metrics.Breakdown
	stages []time.Duration
}

// runJob executes app over its pre-encoded input: the program is built
// and compiled, the input partitions are handed to the driver, and the
// result is rendered as canonical bytes, all inside the call.
func runJob(in *appInput, env jobEnv) (jobResult, error) {
	var res jobResult
	onStage := func(_ string, _ *metrics.Breakdown, wall time.Duration) {
		res.stages = append(res.stages, wall)
	}
	comp, conf := newCompiled(in.app)
	if sa, ok := sparkApps[in.app]; ok {
		// The Spark driver opens no job span of its own; this one, like
		// the one the repository's harness opens, makes the stage spans
		// fold under their job.
		job := env.trace.StartSpan("job", in.app, trace.Str("mode", env.mode.String()), benchSpan)
		defer job.End()
		ctx := spark.NewContext(comp, env.mode)
		ctx.Workers = workers
		ctx.Partitions = partitions
		ctx.HeapCfg = sparkHeap
		ctx.Trace = env.trace
		ctx.Tenant, ctx.JobID = env.tenant, env.jobID
		ctx.Checkpoints, ctx.Lineage = env.checkpoints, env.lineage
		ctx.Canceled = env.canceled
		if env.breaker != nil {
			ctx.Breaker = env.breaker
		}
		ctx.OnStage = onStage
		out, err := sa.run(ctx, comp, ctx.Parallelize(sa.inClass, in.parts))
		res.out, res.stats = out, ctx.Stats
		return res, err
	}
	conf.Mode = env.mode
	conf.Workers = workers
	conf.Reducers = partitions
	conf.MapHeap = hadoopMapHeap
	conf.ReduceHeap = hadoopReduceHeap
	conf.Trace = env.trace
	conf.Shuffle = env.hadoopShuffle
	if conf.Shuffle.SpillDir != "" {
		conf.Shuffle.MemoryBudget = in.spillBudget
	}
	conf.Tenant, conf.JobID = env.tenant, env.jobID
	conf.Checkpoints, conf.Lineage = env.checkpoints, env.lineage
	conf.Canceled = env.canceled
	if env.breaker != nil {
		conf.Breaker = env.breaker
	}
	conf.OnStage = onStage
	hr, err := hadoop.Run(comp, conf, in.parts)
	if hr != nil {
		res.out, res.stats = hr.Out, hr.Stats
	}
	return res, err
}

// The simulated per-task heaps, as the repository's harness sizes them
// at scale 1: the least pressured of its three Spark heap sizes, and its
// Hadoop mapper and reducer heaps.
var (
	sparkHeap        = heap.Config{YoungSize: 48 << 10, OldSize: 384 << 10}
	hadoopMapHeap    = heap.Config{YoungSize: 24 << 10, OldSize: 192 << 10}
	hadoopReduceHeap = heap.Config{YoungSize: 24 << 10, OldSize: 288 << 10}
)

// prepare generates app's input from seed and computes its oracle with
// a baseline-mode run over the same partitions. It also returns the
// time input generation and encoding took.
func prepare(app string, size int, seed int64, env jobEnv) (*appInput, time.Duration, error) {
	start := time.Now()
	in, err := genInput(app, size, seed)
	gen := time.Since(start)
	if err != nil {
		return nil, gen, err
	}
	env.mode = engine.Baseline
	env.hadoopShuffle = shuffle.Config{}
	res, err := runJob(in, env)
	if err != nil {
		return nil, gen, fmt.Errorf("%s oracle: %w", app, err)
	}
	if len(res.out) == 0 {
		return nil, gen, fmt.Errorf("%s oracle: empty output", app)
	}
	in.oracle = res.out
	in.spillBudget = max(1, res.stats.ShuffleBytesWritten/(2*partitions))
	return in, gen, nil
}

// appSeed derives a per-program input seed from the run's seed, so the
// programs of one run do not all draw the same random stream.
func appSeed(seed int64, app string) int64 {
	h := seed * 1_000_003
	for _, c := range app {
		h = h*31 + int64(c)
	}
	return h
}
