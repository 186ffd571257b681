package main

import (
	"bufio"
	"bytes"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// tracing is the traced half of a per-layer run: a tracer handed to the
// program through its Trace fields, a flame aggregator folding its
// spans into self time, and a subscriber that keeps what the flame
// does not — the intervals of top-level spans, the time the shuffle
// writers stay open, and the outcomes of native attempts.
type tracing struct {
	tr    *trace.Tracer
	flame *obs.Flame

	mu             sync.Mutex
	window         [2]int64   // the measurement window, tracer clock
	roots          [][2]int64 // top-level program spans
	writeOpenNs    int64
	nativeAttempts int64
	nativeCommits  int64
}

func newTracing() *tracing {
	t := &tracing{tr: trace.New(), flame: obs.NewFlame()}
	// The tracer streams to a sink that takes the header and refuses
	// every write after it. A refused write stops the stream, so the
	// tracer neither encodes nor keeps any later event; it still hands
	// each to the subscribers below, which keep what the report needs.
	if err := t.tr.StreamTo(&headerOnly{}); err != nil {
		panic(err) // a fresh tracer is never already streaming
	}
	t.tr.Subscribe(t.fold)
	t.tr.Subscribe(t.observe)
	return t
}

// headerOnly accepts the first write and refuses the rest.
type headerOnly struct{ wrote bool }

var errRefused = errors.New("event refused")

func (h *headerOnly) Write(p []byte) (int, error) {
	if h.wrote {
		return 0, errRefused
	}
	h.wrote = true
	return len(p), nil
}

// benchSpan marks the spans the benchmark opens itself, which do not
// count as program spans when the residual is computed.
var benchSpan = trace.Str("opened-by", "perfbench")

// tracer returns the tracer to hand to the program (nil, the disabled
// tracer, for an untraced measurement).
func (t *tracing) tracer() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// begin opens the span marking the measurement window (nil, which
// ignores End, for an untraced measurement).
func (t *tracing) begin() *trace.Span {
	return t.tracer().StartSpan("bench", "window", benchSpan)
}

// fold feeds the flame. The flame nests a parentless span under the
// innermost open job or stage span; the streaming driver's run, batch
// and window spans are presented to it as such, so the map and reduce
// tasks a batch or window runs fold under it instead of standing alone.
func (t *tracing) fold(e trace.Event) {
	if e.Cat == "stream" {
		if strings.HasPrefix(e.Name, "run-") {
			e.Cat, e.Name = "job", "stream.run"
		} else {
			e.Cat, e.Name = "stage", "stream."+e.Name
		}
	}
	t.flame.Observe(e)
}

// observe runs under the tracer's lock for every event.
func (t *tracing) observe(e trace.Event) {
	if e.Ph != "X" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case e.Cat == "bench" && e.Name == "window":
		t.window = [2]int64{e.TS, e.TS + e.Dur}
	case e.PSID == 0 && e.Args[benchSpan.Key] == nil:
		t.roots = append(t.roots, [2]int64{e.TS, e.TS + e.Dur})
	}
	switch {
	case e.Cat == "shuffle" && e.Name == "shuffle-write":
		t.writeOpenNs += e.Dur
	case e.Cat == "attempt" && e.Name == "native-attempt":
		t.nativeAttempts++
		if e.Args["outcome"] == "ok" {
			t.nativeCommits++
		}
	}
}

// residualNs is the part of the measurement window no top-level
// program span covers: time the benchmark's own loop, the generator or
// an idle service spent outside the program.
func (t *tracing) residualNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := t.window[0], t.window[1]
	iv := append([][2]int64(nil), t.roots...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, cur := int64(0), lo
	for _, s := range iv {
		start, end := max(s[0], cur), min(s[1], hi)
		if end > start {
			covered += end - start
			cur = end
		}
	}
	return hi - lo - covered
}

// selfNs folds the flame's stacks by leaf frame: task, job, cluster,
// exchange and Spark stage spans carry per-instance names, which are
// collapsed so the keys form a fixed set.
func (t *tracing) selfNs() map[string]int64 {
	var buf bytes.Buffer
	if err := t.flame.WriteFolded(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	self := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		stack, weight, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		ns, err := strconv.ParseInt(weight, 10, 64)
		if err != nil {
			continue
		}
		leaf := stack[strings.LastIndexByte(stack, ';')+1:]
		cat, name, _ := strings.Cut(leaf, ":")
		self[frameKey(cat, name)] += ns
	}
	return self
}

// shuffleFrames are the shuffle spans with fixed names; every other
// shuffle span is an exchange, named after its stage.
var shuffleFrames = map[string]bool{
	"shuffle-write": true, "spill": true, "merge": true, "fetch": true, "decompress": true,
}

// hadoopStages are the Hadoop driver's serial stage spans; Spark stage
// spans carry the name of the stage's driver function.
var hadoopStages = map[string]bool{
	"map": true, "map-sort": true, "shuffle": true, "merge-sort": true,
	"combine": true, "reduce": true,
}

func frameKey(cat, name string) string {
	switch cat {
	case "task", "cluster":
		return cat
	case "job":
		if strings.HasPrefix(name, "stream.") {
			return name
		}
		return cat
	case "shuffle":
		if !shuffleFrames[name] {
			return "shuffle.exchange"
		}
	case "stage":
		if strings.HasPrefix(name, "stream.") {
			return name
		}
		if !hadoopStages[name] {
			return "stage.spark"
		}
	}
	return cat + "." + name
}

// selfKeys are the span self times reported as self_ms.<key>.
var selfKeys = []string{
	"phase.native-execute", "attempt.native-attempt",
	"phase.heap-execute", "phase.heap-fallback", "phase.serialize", "phase.deserialize",
	"attempt.heap-attempt", "compile.closure-compile", "task",
	"shuffle.spill", "shuffle.merge", "shuffle.fetch", "shuffle.decompress",
	"job", "stage.spark", "stage.map", "stage.map-sort", "stage.shuffle",
	"stage.merge-sort", "stage.combine", "stage.reduce",
	"stream.batch", "stream.window", "stream.run",
}

// report emits the traced half's metrics, each divided by n, the
// number of jobs the program ran while the tracer was attached.
func (t *tracing) report(n float64, put func(string, float64, string)) {
	self := t.selfNs()
	perJobMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	for _, k := range selfKeys {
		put("self_ms."+k, perJobMs(self[k]), "ms/job")
	}
	var driver int64
	for k, ns := range self {
		if k == "job" || strings.HasPrefix(k, "stage.") {
			driver += ns
		}
	}
	put("driver.self_ms", perJobMs(driver), "ms/job")

	reg := t.tr.Registry()
	perJob := func(counter string) float64 { return float64(reg.Counter(counter).Value()) / n }
	put("compile.closures", perJob("compile_total"), "count/job")
	put("compile.deopts", perJob("deopt_total"), "count/job")
	put("shuffle.syncs", perJob("shuffle_incremental_syncs_total"), "count/job")
	put("recovery.checkpoints_saved", perJob("recovery_checkpoints_saved_total"), "count/job")

	t.mu.Lock()
	open, attempts, commits := t.writeOpenNs, t.nativeAttempts, t.nativeCommits
	t.mu.Unlock()
	// A writer's span stays open from its first record to its close —
	// across batches in the stream workload — so this is open time, not
	// busy time; shuffle.write_ms is the busy time.
	put("open_ms.shuffle.shuffle-write", perJobMs(open), "ms/job")
	commit := 1.0
	if attempts > 0 {
		commit = float64(commits) / float64(attempts)
	}
	put("native.commit_ratio", commit, "ratio")
	put("residual_ms", perJobMs(t.residualNs()), "ms/job")
}
