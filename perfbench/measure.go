package main

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/metrics"
)

// tally accumulates what one measurement saw: every operation's outcome
// and latency, the program's returned cost breakdowns, and the
// workload-specific latencies of the stream and tenants workloads.
type tally struct {
	attempted, failed int64
	// wall is the time the measurement ran jobs: in batch and stream
	// the sum of the jobs' times, in tenants the whole schedule after
	// its lead.
	wall    time.Duration
	records int64
	// ops holds every job's timings in wall time. reference converts
	// them, once the measurement is over: jobMs holds each job's
	// completion time and stepMs each unit the driver runs as a whole —
	// a stage of a batch job, or the median micro-batch of a streaming
	// run — in reference milliseconds; runRefMs sums the time the
	// program ran each job, in the same.
	ops           []op
	jobMs, stepMs []float64
	runRefMs      float64
	// rss holds the resident set sizes sampled with the machine's
	// speed; err is the first failure to read one.
	rss   []float64
	err   error
	stats metrics.Breakdown
	// peakSum sums each job's peak simulated heap plus arena bytes.
	peakSum int64
	batches int64
	// ran counts the jobs the program ran while the measurement's
	// tracer was attached: the tallied jobs, plus, in tenants, the
	// lead's jobs, which run on the same service.
	ran int64

	// Tenants workload only.
	queueMs, runMs []float64
	tenantMs       map[string][]float64
	rejected       int64
	lateMax        time.Duration
}

// op is one job's timings: its completion time took, counted from
// start, the part of it the program ran the job, and the driver's
// steps.
type op struct {
	start     time.Time
	took, run time.Duration
	steps     []time.Duration
}

// job folds one finished job into the tally. ok reports whether it
// succeeded and its output matched the oracle; records is how many
// input records it processed.
func (t *tally) job(ok bool, o op, st metrics.Breakdown, records int64) {
	t.attempted++
	t.ran++
	if !ok {
		t.failed++
	}
	t.ops = append(t.ops, o)
	t.stats.Add(st)
	t.records += records
	t.peakSum += st.PeakBytes()
}

// reference converts the jobs' timings into reference time at the
// speeds c sampled, and keeps the resident sets it sampled.
func (t *tally) reference(c *clock) {
	for _, s := range c.samples {
		t.rss = append(t.rss, s.rss)
	}
	t.err = c.err
	for _, o := range t.ops {
		k := c.kernelAt(o.start.Add(o.took / 2))
		t.jobMs = append(t.jobMs, float64(o.took)/k)
		t.runRefMs += float64(o.run) / k
		for _, s := range o.steps {
			t.stepMs = append(t.stepMs, float64(s)/k)
		}
	}
}

// recordsPerRefS is the records processed per reference second the
// program spent running jobs.
func (t *tally) recordsPerRefS() float64 {
	return float64(t.records) / max(t.runRefMs/1e3, 1e-9)
}

func (t *tally) jobs() float64 { return float64(max(len(t.jobMs), 1)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// okShare is the share of attempted operations that did not fail.
func okShare(attempted, failed int64) float64 {
	return 1 - float64(failed)/float64(max(attempted, 1))
}

func equalWindows(got, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

// endToEnd reports the end-to-end metrics of the forks' pooled
// measurements; setupS is their median set-up.
func endToEnd(t *tally, setupS float64) *report {
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"records_per_s": {t.recordsPerRefS(), "records/ref_s"},
		"job_ms_p50":    {quantile(t.jobMs, 0.5), "ref_ms"},
		"job_ms_p90":    {quantile(t.jobMs, 0.9), "ref_ms"},
		"batch_ms_p50":  {median(t.stepMs), "ref_ms"},
		"peak_bytes":    {float64(t.peakSum) / t.jobs(), "bytes"},
		"rss_bytes_p90": {quantile(t.rss, 0.9), "bytes"},
		"ok_share":      {okShare(t.attempted, t.failed), "ratio"},
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// measureLayers runs the workload untraced for half of d, then traced
// for the other half, and reports the per-layer metrics: values the
// program returns come from the untraced half, counters and span self
// times from the traced half, both per job.
func measureLayers(r runner, d time.Duration) *report {
	u := r.measure(d/2, nil)
	tr := newTracing()
	t := r.measure(d/2, tr)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Values the program returns, per job of the untraced half.
	n, st := u.jobs(), u.stats
	perJobMs := func(d time.Duration) float64 { return ms(d) / n }
	perJob := func(c int64) float64 { return float64(c) / n }
	put("native.exec_ms", perJobMs(st.NativeTime), "ms/job")
	put("native.peak_bytes", float64(st.PeakNativeBytes), "bytes")
	put("native.aborts", perJob(st.Aborts), "count/job")
	put("engine.task_ms", perJobMs(st.Total), "ms/job")
	put("engine.busy_ratio", float64(st.Total)/(float64(u.wall)*float64(workers)), "ratio")
	put("engine.attempts", perJob(st.Attempts), "count/job")
	put("engine.retries", perJob(st.Retries), "count/job")
	put("engine.native_skips", perJob(st.NativeSkips), "count/job")
	put("heap.exec_ms", perJobMs(st.HeapTime), "ms/job")
	put("heap.gc_ms", perJobMs(st.GC), "ms/job")
	put("heap.minor_gcs", perJob(st.MinorGCs), "count/job")
	put("heap.major_gcs", perJob(st.MajorGCs), "count/job")
	put("heap.alloc_bytes", perJob(st.AllocBytes), "bytes/job")
	put("heap.peak_bytes", float64(st.PeakHeapBytes), "bytes")
	put("serde.ser_ms", perJobMs(st.Ser), "ms/job")
	put("serde.deser_ms", perJobMs(st.Deser), "ms/job")
	put("shuffle.write_ms", perJobMs(st.ShuffleWrite), "ms/job")
	put("shuffle.read_ms", perJobMs(st.ShuffleRead), "ms/job")
	put("shuffle.spills", perJob(st.Spills), "count/job")
	put("shuffle.bytes_written", perJob(st.ShuffleBytesWritten), "bytes/job")
	put("shuffle.bytes_spilled", perJob(st.ShuffleBytesSpilled), "bytes/job")
	put("shuffle.bytes_fetched", perJob(st.ShuffleBytesFetched), "bytes/job")
	put("stream.batches", perJob(u.batches), "count/job")
	perBatch := 0.0
	if u.batches > 0 {
		perBatch = float64(u.records) / float64(u.batches)
	}
	put("stream.records_per_batch", perBatch, "records/batch")
	put("cluster.queue_ms_p50", quantile(u.queueMs, 0.5), "ms")
	put("cluster.queue_ms_p90", quantile(u.queueMs, 0.9), "ms")
	put("cluster.run_ms_p50", quantile(u.runMs, 0.5), "ms")
	put("cluster.rejected", float64(u.rejected), "count")
	for _, tenant := range tenantNames {
		put("cluster."+tenant+".job_ms_p50", quantile(u.tenantMs[tenant], 0.5), "ms")
	}
	put("loadgen.late_ms_max", ms(u.lateMax), "ms")
	put("workload.gen_ms", r.genMs(), "ms")

	// Counters, span self times and coverage, per job the traced half's
	// tracer saw.
	tr.report(float64(max(t.ran, 1)), put)
	put("trace.overhead_ratio", overheadRatio(u, t), "ratio")

	return &report{
		Correct:   u.failed == 0 && t.failed == 0,
		Attempted: u.attempted + t.attempted,
		Failed:    u.failed + t.failed,
		Metrics:   m,
	}
}

// overheadRatio is traced over untraced throughput.
func overheadRatio(u, t *tally) float64 {
	return t.recordsPerRefS() / u.recordsPerRefS()
}
