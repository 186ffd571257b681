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
	"sync/atomic"
	"time"

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

// speculate runs the native attempt, then settles it. Unhedged is the
// hedged flow whose hedge never fires: with no hedge delay armed the
// native attempt runs synchronously on the task goroutine (no goroutine,
// timer or channel), and a hedged native attempt that beats the delay
// is settled exactly the same way.
func (r *taskRun) speculate() (TaskResult, error) {
	e, spec := r.e, r.spec
	if e.VerifyInputs {
		r.sum, r.canary = checksumInputs(spec), true
	}
	natt := r.span.Child("attempt", "native-attempt")
	var nr attemptOutcome
	if delay, hedged := e.hedgeDelay(); !hedged {
		nr.out, nr.bd, nr.err = e.runNativeAttempt(spec, natt, nil)
	} else {
		cancel := newCanceler()
		ch := make(chan attemptOutcome, 1)
		go func() {
			out, bd, err := e.runNativeAttempt(spec, natt, cancel)
			ch <- attemptOutcome{out, bd, err}
		}()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		// First finisher wins: a native attempt that completes just as
		// the hedge delay expires may go either way, and both outcomes
		// are valid.
		select {
		case nr = <-ch:
		case <-timer.C:
			return r.race(natt, ch, cancel, delay)
		}
	}
	switch r.settleNative(natt, nr) {
	case nativeOK:
		return r.succeed(nr.out)
	case nativeAbort:
		return r.fallback()
	default:
		return r.fail(nr.err)
	}
}

// race launches the heap hedge beside a native attempt that outlived the
// hedge delay. The first finisher decides whether the other attempt is
// canceled or awaited; both channels are always drained before the task
// returns, so no attempt goroutine outlives its task and every attempt's
// cost lands in the job accounting (a canceled loser's partial work is
// real work the hedge spent).
func (r *taskRun) race(natt *trace.Span, nativeCh <-chan attemptOutcome,
	nativeCancel *canceler, delay time.Duration) (TaskResult, error) {
	e, spec := r.e, r.spec
	reg := e.Trace.Registry()
	r.span.Instant("hedge", "hedge-launch",
		trace.Str("driver", spec.Driver), trace.I64("delay_ns", int64(delay)))
	reg.Counter("hedges_total").Add(1)
	r.bd.Hedges++
	heapCancel := newCanceler()
	heapCh := make(chan attemptOutcome, 1)
	hatt := r.span.Child("attempt", "heap-hedge")
	go func() {
		out, bd, err := e.runHeapAttempt(spec, hatt, heapCancel)
		heapCh <- attemptOutcome{out, bd, err}
	}()

	var nr, hr attemptOutcome
	var nv verdict
	heapCanceled := false
	select {
	case nr = <-nativeCh:
		// An ok or failed native attempt decides the task, so the hedge
		// lost. After an abort the running hedge IS the heap fallback the
		// unhedged path would start now: wait for it.
		nv = r.settleNative(natt, nr)
		if heapCanceled = nv != nativeAbort; heapCanceled {
			heapCancel.cancel()
		}
		hr = <-heapCh
	case hr = <-heapCh:
		// A heap answer makes the native attempt a straggler to cancel.
		// After a heap error the task's outcome rests on the native
		// attempt, so it runs on.
		if hr.err == nil {
			nativeCancel.cancel()
		}
		nr = <-nativeCh
		nv = r.settleNative(natt, nr)
	}
	r.settleHeap(hatt, hr, heapCanceled)
	if heapCanceled && nv == nativeOK {
		r.span.Instant("hedge", "hedge-cancel", trace.Str("loser", "heap"))
		reg.Counter("hedge_cancels_total").Add(1)
	}
	heapWon := !heapCanceled && hr.err == nil
	if heapWon {
		r.span.Instant("hedge", "hedge-win", trace.Str("driver", spec.Driver))
		reg.Counter("hedge_wins_total").Add(1)
		r.bd.HedgeWins++
	}
	switch {
	case nv == nativeError:
		// A permanent native failure fails the task exactly as the
		// unhedged path would; the hedge's answer must not mask it.
		return r.fail(nr.err)
	case heapWon:
		return r.succeed(hr.out)
	case nv == nativeOK:
		return r.succeed(nr.out)
	default:
		// Failed speculation and a failed heap path.
		return r.fail(hr.err)
	}
}
