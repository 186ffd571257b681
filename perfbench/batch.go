package main

import (
	"bytes"
	"time"

	"repro/internal/engine"
	"repro/internal/shuffle"
)

// batchRunner is the paper's own workload: one client runs the twelve
// Table 1 and Table 2 programs one job at a time, in gerenuk mode, in
// a closed loop.
type batchRunner struct {
	inputs []*appInput
	env    jobEnv
	gen    time.Duration
	lead   time.Duration
}

// spillingShuffle is the Hadoop jobs' exchange: map tasks spill sorted
// runs to dir, which the reduce side merges and decompresses.
func spillingShuffle(dir string) shuffle.Config {
	return shuffle.Config{SpillDir: dir, Compression: shuffle.LZ4}
}

func setUpBatch(seed int64, sz sizes, scratch string) (runner, error) {
	r := &batchRunner{env: jobEnv{hadoopShuffle: spillingShuffle(scratch)}, lead: sz.lead}
	for _, app := range append(append([]string(nil), sparkNames...), hadoopNames...) {
		in, gen, err := prepare(app, sz.batch, appSeed(seed, app), r.env)
		r.gen += gen
		if err != nil {
			return nil, err
		}
		r.inputs = append(r.inputs, in)
	}
	// Warm up: one gerenuk-mode job of every program.
	env := r.env
	env.mode = engine.Gerenuk
	for _, in := range r.inputs {
		if _, err := runJob(in, env); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *batchRunner) genMs() float64 { return ms(r.gen) }

func (r *batchRunner) measure(d time.Duration, tr *tracing) *tally {
	r.loop(r.lead, nil)
	return r.loop(d, tr)
}

// loop runs jobs for d, sampling the machine's speed between them, and
// tallies them.
func (r *batchRunner) loop(d time.Duration, tr *tracing) *tally {
	env := r.env
	env.mode = engine.Gerenuk
	env.trace = tr.tracer()
	t := &tally{}
	var c clock
	win := tr.begin()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if c.due() {
			c.sample()
		}
		in := r.inputs[i%len(r.inputs)]
		t0 := time.Now()
		res, err := runJob(in, env)
		took := time.Since(t0)
		t.wall += took
		t.job(err == nil && bytes.Equal(res.out, in.oracle), op{t0, took, took, res.stages}, res.stats, res.stats.Records)
	}
	win.End()
	c.sample()
	t.reference(&c)
	return t
}
