// Hedged task execution: the straggler mitigation the paper's recovery
// model (§3.6) leaves on the table. The unhedged executor runs the heap
// path only *after* a speculative abort, so a native attempt that is
// merely slow — a GC-wedged executor, a pathological input, an injected
// stall — serializes the whole task behind it. Hedging bounds that tail:
// once a native attempt has run longer than a configurable hedge delay,
// the untransformed heap attempt launches concurrently over the same
// immutable input buffers and the task takes the first finisher, the
// loser being canceled cooperatively through the interpreter's step
// loop.
//
// The race is safe for exactly the reason re-execution after an abort is
// safe: speculation never mutates task inputs (the statically inserted
// mutate-input aborts enforce it, the VerifyInputs canary checks it),
// and each attempt owns all of its other state — its own heap, its own
// arena, its own output sink. Both paths compute the same function, so
// whichever finishes first yields the same bytes; the differential tests
// pin hedged output byte-identical to unhedged output under -race.
//
// One deliberate asymmetry: a *permanent* native failure fails the task
// even if the hedge produced an answer, because that is what the
// unhedged path does — hedging must never change a task's outcome, only
// its latency.

package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// HedgeConfig configures straggler hedging for an executor. The zero
// value disables hedging entirely (the paper's serial recovery
// semantics).
type HedgeConfig struct {
	// After is the absolute hedge delay: a native attempt still running
	// after this long gets a concurrent heap attempt raced against it.
	// <= 0 disables the absolute trigger.
	After time.Duration
	// MedianMult, when > 0, derives the hedge delay adaptively as
	// MedianMult times the pool's observed median task latency (the
	// task_latency_ns histogram of the executor's tracer registry). It
	// needs an enabled tracer and at least MinSamples observed tasks;
	// until both hold, After (if set) applies instead.
	MedianMult float64
	// MinSamples is the minimum number of task-latency observations
	// before the median trigger takes over from After (default 8).
	MinSamples int
}

// Enabled reports whether any hedge trigger is configured.
func (h HedgeConfig) Enabled() bool { return h.After > 0 || h.MedianMult > 0 }

// hedgeDelay resolves the hedge delay for the next task: the adaptive
// median-based trigger when enough latency samples exist, otherwise the
// absolute delay. ok is false when hedging should not arm at all.
func (e *Executor) hedgeDelay() (delay time.Duration, ok bool) {
	h := e.Hedge
	if !h.Enabled() {
		return 0, false
	}
	if h.MedianMult > 0 {
		minSamples := h.MinSamples
		if minSamples <= 0 {
			minSamples = 8
		}
		hist := e.Trace.Registry().Histogram("task_latency_ns", trace.LatencyBuckets()...)
		if med, n := hist.Quantile(0.5); n >= int64(minSamples) && med > 0 {
			return time.Duration(h.MedianMult * med), true
		}
	}
	if h.After > 0 {
		return h.After, true
	}
	return 0, false
}

// canceler carries the cooperative cancellation signal for one racing
// attempt: an atomic flag the interpreter's step loop polls, plus a
// channel injected stalls select on. A nil *canceler never cancels.
type canceler struct {
	flag atomic.Bool
	ch   chan struct{}
}

func newCanceler() *canceler { return &canceler{ch: make(chan struct{})} }

// cancel signals the attempt to stop at its next cancellation point.
// Idempotent and safe to call concurrently.
func (c *canceler) cancel() {
	if c.flag.CompareAndSwap(false, true) {
		close(c.ch)
	}
}

// cancelFlag returns the flag the interpreter polls (nil = uncancelable).
func (c *canceler) cancelFlag() *atomic.Bool {
	if c == nil {
		return nil
	}
	return &c.flag
}

// sleep blocks for d or until canceled, reporting whether it was
// canceled first.
func (c *canceler) sleep(d time.Duration) bool {
	if c == nil {
		time.Sleep(d)
		return false
	}
	// An already-canceled attempt must not race a tiny d: with both the
	// timer and the cancel channel ready, select would pick at random.
	if c.flag.Load() {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-c.ch:
		return true
	}
}

// attemptOutcome is one racing attempt's result, handed back over a
// channel so the task goroutine aggregates stats without shared state.
type attemptOutcome struct {
	out []byte
	bd  metrics.Breakdown
	err error
}

// runTaskHedged is RunTask's native branch with hedging armed. It owns
// the full task outcome from here: the native attempt starts
// immediately in its own goroutine; if it outlives the hedge delay, the
// heap attempt launches beside it and the first finisher wins. Both
// channels are always drained before returning, so no attempt goroutine
// outlives its task and every attempt's cost lands in the job
// accounting (a canceled loser's partial work is real work the hedge
// spent).
func (e *Executor) runTaskHedged(spec TaskSpec, task *trace.Span, start time.Time,
	bd *metrics.Breakdown, sum uint64, delay time.Duration,
	finish func(string), fail func(error) (TaskResult, error)) (TaskResult, error) {

	reg := e.Trace.Registry()

	// recordAbort mirrors the synchronous path's breaker and abort
	// accounting for a native attempt that ran to a failed speculation.
	recordAbort := func(err error) {
		e.Breaker.Record(spec.Driver, true)
		bd.Aborts++
		task.Instant("abort", "speculation-abort",
			trace.Str("class", Classify(err).String()), trace.Str("reason", err.Error()))
		reg.Counter("aborts_total").Add(1)
		e.recordDeopt(spec.Driver)
	}
	// verify re-runs the mutate-input canary. Every caller settles both
	// attempts first, so a hedged race can never mask a corrupted input:
	// mutation fails the task loudly, exactly like the unhedged path.
	verify := func() error {
		if e.VerifyInputs && checksumInputs(spec) != sum {
			return &TaskError{Task: spec.Name, Class: FaultPermanent, Err: ErrInputMutated}
		}
		return nil
	}
	ok := func(out []byte) (TaskResult, error) {
		if err := verify(); err != nil {
			return fail(err)
		}
		bd.Total = time.Since(start)
		finish("ok")
		return TaskResult{Out: out, Stats: *bd}, nil
	}

	nativeCancel := newCanceler()
	nativeCh := make(chan attemptOutcome, 1)
	natt := task.Child("attempt", "native-attempt")
	go func() {
		out, abd, err := e.runNativeAttempt(spec, natt, nativeCancel)
		nativeCh <- attemptOutcome{out: out, bd: abd, err: err}
	}()

	hedgeTimer := time.NewTimer(delay)
	defer hedgeTimer.Stop()

	var nr attemptOutcome
	nativeFirst := false
	// First finisher wins: a native attempt that completes just as the
	// hedge delay expires may go either way, and both outcomes are valid.
	select {
	case nr = <-nativeCh:
		nativeFirst = true
	case <-hedgeTimer.C:
	}

	if nativeFirst {
		// The native attempt beat the hedge delay: no intra-task
		// concurrency happened and the unhedged semantics apply verbatim.
		bd.Add(nr.bd)
		switch {
		case nr.err == nil:
			natt.End(trace.Str("outcome", "ok"))
			e.Breaker.Record(spec.Driver, false)
			return ok(nr.out)
		case Classify(nr.err) == AbortSpeculation || Classify(nr.err) == FaultOOM:
			natt.End(trace.Str("outcome", "abort"))
			recordAbort(nr.err)
			if err := verify(); err != nil {
				return fail(err)
			}
			hatt := task.Child("attempt", "heap-attempt")
			out, hbd, err := e.runHeapAttempt(spec, hatt, nil)
			bd.Add(hbd)
			if err != nil {
				hatt.End(trace.Str("outcome", "error"))
				return fail(err)
			}
			hatt.End(trace.Str("outcome", "ok"))
			bd.Total = time.Since(start)
			finish("ok")
			return TaskResult{Out: out, Stats: *bd}, nil
		default:
			natt.End(trace.Str("outcome", "error"))
			return fail(nr.err)
		}
	}

	// The hedge fires: launch the untransformed heap attempt over the
	// same immutable input buffers and take the first finisher.
	task.Instant("hedge", "hedge-launch",
		trace.Str("driver", spec.Driver), trace.I64("delay_ns", int64(delay)))
	reg.Counter("hedges_total").Add(1)
	bd.Hedges++
	heapCancel := newCanceler()
	heapCh := make(chan attemptOutcome, 1)
	hatt := task.Child("attempt", "heap-hedge")
	go func() {
		out, hbd, err := e.runHeapAttempt(spec, hatt, heapCancel)
		heapCh <- attemptOutcome{out: out, bd: hbd, err: err}
	}()

	select {
	case nr = <-nativeCh:
		bd.Add(nr.bd)
		switch {
		case nr.err == nil:
			// Native finished first after all: cancel the hedge, drain
			// it, and return the speculative result.
			natt.End(trace.Str("outcome", "ok"))
			e.Breaker.Record(spec.Driver, false)
			heapCancel.cancel()
			hr := <-heapCh
			bd.Add(hr.bd)
			hatt.End(trace.Str("outcome", "canceled"))
			task.Instant("hedge", "hedge-cancel", trace.Str("loser", "heap"))
			reg.Counter("hedge_cancels_total").Add(1)
			return ok(nr.out)
		case Classify(nr.err) == AbortSpeculation || Classify(nr.err) == FaultOOM:
			// Failed speculation: the already-running hedge IS the heap
			// fallback the unhedged path would now start — wait for it.
			natt.End(trace.Str("outcome", "abort"))
			recordAbort(nr.err)
			hr := <-heapCh
			bd.Add(hr.bd)
			if hr.err != nil {
				hatt.End(trace.Str("outcome", "error"))
				return fail(hr.err)
			}
			hatt.End(trace.Str("outcome", "ok"))
			task.Instant("hedge", "hedge-win", trace.Str("driver", spec.Driver))
			reg.Counter("hedge_wins_total").Add(1)
			bd.HedgeWins++
			return ok(hr.out)
		default:
			// Permanent native failure fails the task exactly as the
			// unhedged path would; the hedge's answer must not mask it.
			natt.End(trace.Str("outcome", "error"))
			heapCancel.cancel()
			hr := <-heapCh
			bd.Add(hr.bd)
			hatt.End(trace.Str("outcome", "canceled"))
			return fail(nr.err)
		}

	case hr := <-heapCh:
		bd.Add(hr.bd)
		if hr.err != nil {
			// The ground-truth path failed. Whether the task fails
			// depends on the native attempt, so wait for it.
			hatt.End(trace.Str("outcome", "error"))
			nr = <-nativeCh
			bd.Add(nr.bd)
			switch {
			case nr.err == nil:
				natt.End(trace.Str("outcome", "ok"))
				e.Breaker.Record(spec.Driver, false)
				return ok(nr.out)
			case Classify(nr.err) == AbortSpeculation || Classify(nr.err) == FaultOOM:
				natt.End(trace.Str("outcome", "abort"))
				recordAbort(nr.err)
				return fail(hr.err)
			default:
				natt.End(trace.Str("outcome", "error"))
				return fail(nr.err)
			}
		}
		// Hedge win: the heap attempt overtook the straggling native.
		// Cancel the straggler cooperatively and drain it.
		hatt.End(trace.Str("outcome", "ok"))
		task.Instant("hedge", "hedge-win", trace.Str("driver", spec.Driver))
		reg.Counter("hedge_wins_total").Add(1)
		bd.HedgeWins++
		nativeCancel.cancel()
		nr = <-nativeCh
		bd.Add(nr.bd)
		switch {
		case nr.err == nil:
			// Lost the race but completed: still a successful
			// speculation for the breaker (both outputs are identical).
			natt.End(trace.Str("outcome", "ok"))
			e.Breaker.Record(spec.Driver, false)
		case errors.Is(nr.err, interp.ErrCanceled):
			natt.End(trace.Str("outcome", "canceled"))
			task.Instant("hedge", "hedge-cancel", trace.Str("loser", "native"))
			reg.Counter("hedge_cancels_total").Add(1)
		case Classify(nr.err) == AbortSpeculation || Classify(nr.err) == FaultOOM:
			natt.End(trace.Str("outcome", "abort"))
			recordAbort(nr.err)
		default:
			// See above: a permanent native failure keeps failing the
			// task with hedging on.
			natt.End(trace.Str("outcome", "error"))
			return fail(nr.err)
		}
		return ok(hr.out)
	}
}
