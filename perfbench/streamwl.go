package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/stream"
	"repro/internal/workload"
)

// streamRunner repeats whole streaming runs of the two streaming
// applications in gerenuk mode: sliding windows, small count-cut
// micro-batches, window state checkpointed every batch.
type streamRunner struct {
	runs []streamRun
	gen  time.Duration
	lead time.Duration
}

// streamRun is one application's run configuration, whose source serves
// records generated during set-up, and its oracle: the windows of a
// baseline-mode run over the same records cut as one batch.
type streamRun struct {
	cfg    stream.Config
	oracle [][]byte
}

// streamConfig is the streamed run of app over records generated from
// seed. The records a run reads are generated here, once: the source
// handed to the driver serves them from memory.
func streamConfig(app string, seed int64, windows int) (stream.Config, error) {
	spec, err := stream.App(app)
	if err != nil {
		return stream.Config{}, err
	}
	cfg := stream.Config{
		App:             spec,
		Mode:            engine.Gerenuk,
		Workers:         workers,
		MapSlots:        2,
		Reducers:        2,
		Seed:            seed,
		Interval:        time.Millisecond,
		CutBy:           stream.Cut{Count: 5},
		WindowBy:        stream.Window{Size: 8 * time.Millisecond, Slide: 4 * time.Millisecond},
		Windows:         windows,
		CheckpointEvery: 4,
	}
	// Every record the run reads arrives before the last window ends,
	// and record i arrives no earlier than i intervals in.
	stop := time.Duration(windows-1)*cfg.WindowBy.Slide + cfg.WindowBy.Size
	src := spec.Source(seed)
	objs := src.Slice(0, int64(stop/cfg.Interval)+1)
	class := src.Class
	cfg.App.Source = func(int64) *workload.Unbounded {
		return &workload.Unbounded{Class: class, At: func(i int64) serde.Obj { return objs[i] }}
	}
	return cfg, nil
}

func setUpStream(seed int64, sz sizes, _ string) (runner, error) {
	r := &streamRunner{lead: sz.lead}
	for _, app := range stream.AppNames {
		start := time.Now()
		cfg, err := streamConfig(app, appSeed(seed, app), sz.streamWindows)
		r.gen += time.Since(start)
		if err != nil {
			return nil, err
		}
		ref := cfg
		ref.Mode = engine.Baseline
		ref.CutBy = stream.Cut{Count: 1 << 30}
		res, err := stream.Run(ref)
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", app, err)
		}
		r.runs = append(r.runs, streamRun{cfg: cfg, oracle: res.Windows})
		// Warm up: one streamed gerenuk-mode run.
		if _, err := stream.Run(cfg); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", app, err)
		}
	}
	return r, nil
}

func (r *streamRunner) genMs() float64 { return ms(r.gen) }

func (r *streamRunner) measure(d time.Duration, tr *tracing) *tally {
	r.loop(r.lead, nil)
	return r.loop(d, tr)
}

// loop runs streaming runs for d, sampling the machine's speed between
// them, and tallies them.
func (r *streamRunner) loop(d time.Duration, tr *tracing) *tally {
	t := &tally{}
	var c clock
	win := tr.begin()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if c.due() {
			c.sample()
		}
		run := r.runs[i%len(r.runs)]
		cfg := run.cfg
		cfg.Trace = tr.tracer()
		t0 := time.Now()
		res, err := stream.Run(cfg)
		took := time.Since(t0)
		t.wall += took
		if err != nil {
			t.job(false, op{t0, took, took, nil}, metrics.Breakdown{}, 0)
			continue
		}
		t.job(equalWindows(res.Windows, run.oracle), op{t0, took, took, []time.Duration{res.BatchP50}}, res.Stats, res.Records)
		t.batches += res.Batches
	}
	win.End()
	c.sample()
	t.reference(&c)
	return t
}
