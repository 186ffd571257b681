package bench

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/trace"
)

// stageSpans lists every stage and stream span in the trace as
// "cat name < parent" in span-open order. Stage and stream spans are all
// opened by the driver goroutine, so their span IDs order them
// deterministically even though task spans interleave.
func stageSpans(tr *trace.Tracer) []string {
	events := tr.Events()
	names := map[int64]string{}
	var spans []trace.Event
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		names[e.SID] = e.Name
		if e.Cat == "stage" || e.Cat == "stream" {
			spans = append(spans, e)
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].SID < spans[b].SID })
	out := make([]string, len(spans))
	for i, e := range spans {
		out[i] = e.Cat + " " + e.Name + " < " + names[e.PSID]
	}
	return out
}

// watchdogNames lists the stage names the watchdog reported timeouts
// for, in the order they fired.
func watchdogNames(tr *trace.Tracer) []string {
	var out []string
	for _, e := range tr.Events() {
		if e.Cat == "recovery" && e.Name == "stage-timeout" {
			out = append(out, e.Args["stage"].(string))
		}
	}
	return out
}

// shapeRun runs one job of the named kind ("PR" and "IMC" through
// RunApp, "stream" through one streaming wordcount run) and returns its
// tracer plus the stage names the stage hook observed.
func shapeRun(t *testing.T, job string, deadline time.Duration) (*trace.Tracer, []string, error) {
	t.Helper()
	tr := trace.New()
	var mu sync.Mutex
	var hooked []string
	cfg := Config{Scale: 1, Workers: 2, Partitions: 2, Iters: 2, Trace: tr,
		StageDeadline: deadline,
		StageHook: func(_ string, _ engine.Mode, stage string, _ *metrics.Breakdown, _ time.Duration) {
			mu.Lock()
			hooked = append(hooked, stage)
			mu.Unlock()
		}}
	var err error
	if job == "stream" {
		var sc stream.Config
		sc, err = StreamRunConfig(cfg, "wordcount", engine.Gerenuk)
		if err != nil {
			t.Fatal(err)
		}
		_, err = stream.Run(sc)
	} else {
		_, err = RunApp(job, cfg, engine.Gerenuk)
	}
	mu.Lock()
	defer mu.Unlock()
	return tr, append([]string(nil), hooked...), err
}

// TestTraceShapePinned pins the span structure tracelint and perfbench's
// per-layer attribution read: the (cat, name, parent) of every stage and
// stream span, the stage names the stage hook receives, and the names
// the stage watchdog guards under, for a Spark job (PR), a Hadoop job
// with a combiner (IMC) and a streaming run.
func TestTraceShapePinned(t *testing.T) {
	prStages := []string{
		"prInitStage",
		"prJoinStage", "prCombineStage", "prUpdateStage",
		"prJoinStage", "prCombineStage", "prUpdateStage",
	}
	imcStages := []string{"map", "combine", "reduce"}
	cases := []struct {
		job    string
		spans  []string
		stages []string
	}{
		// The Spark driver opens its stage spans at the root.
		{"PR", []string{
			"stage prInitStage < ",
			"stage prJoinStage < ", "stage prCombineStage < ", "stage prUpdateStage < ",
			"stage prJoinStage < ", "stage prCombineStage < ", "stage prUpdateStage < ",
		}, prStages},
		{"IMC", []string{
			"stage map < IMC", "stage map-sort < IMC", "stage combine < IMC",
			"stage shuffle < IMC", "stage merge-sort < IMC", "stage reduce < IMC",
		}, imcStages},
		{"stream", []string{
			"stream run-wordcount < ",
			"stream batch < run-wordcount",
			"stream batch < run-wordcount",
			"stream window < run-wordcount",
			"stream batch < run-wordcount",
			"stream batch < run-wordcount",
			"stream window < run-wordcount",
			"stream batch < run-wordcount",
			"stream window < run-wordcount",
		}, nil},
	}
	for _, c := range cases {
		tr, stages, err := shapeRun(t, c.job, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.job, err)
		}
		if got := stageSpans(tr); !reflect.DeepEqual(got, c.spans) {
			t.Errorf("%s stage spans:\n got %q\nwant %q", c.job, got, c.spans)
		}
		if !reflect.DeepEqual(stages, c.stages) {
			t.Errorf("%s hooked stages:\n got %q\nwant %q", c.job, stages, c.stages)
		}
	}

	// A 1ns deadline times out every guarded stage: the first stage of
	// each job is guarded, fails, and is re-executed once under its
	// "#retry" name before the job gives up.
	guards := map[string][]string{
		"PR":     {"prInitStage", "prInitStage#retry"},
		"IMC":    {"IMC/map", "IMC/map#retry"},
		"stream": {"stream-wordcount-map", "stream-wordcount-map#retry"},
	}
	for _, job := range []string{"PR", "IMC", "stream"} {
		tr, _, err := shapeRun(t, job, time.Nanosecond)
		if err == nil {
			t.Fatalf("%s: 1ns stage deadline did not fire", job)
		}
		if got := watchdogNames(tr); !reflect.DeepEqual(got, guards[job]) {
			t.Errorf("%s watchdog names: got %q, want %q", job, got, guards[job])
		}
	}
}
