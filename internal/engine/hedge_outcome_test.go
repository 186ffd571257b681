package engine_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/trace"
)

// TestHedgedOutcomeTable pins the task outcome of every (native outcome,
// hedge mode) pair: the error class, the output bytes, the Breakdown
// counters, the registry counters, and the (attempt span, outcome) pairs.
//
// Native outcomes: ok, a cooperative abort, and an injected non-abort
// failure (a reduce kill is a transient TaskError). Hedge modes: off,
// native-first (the hedge delay is never reached, so the unhedged
// semantics must apply verbatim) and heap-first (the native attempt
// stalls, so the hedge launches and finishes before native code runs).
// In heap-first mode the once-per-plan kill lands on the heap attempt,
// which pins the "heap error, native ok" branch: the task succeeds with
// the native output.
func TestHedgedOutcomeTable(t *testing.T) {
	const records = 25
	// Long enough for the hedge to finish all records first, short
	// enough that waiting out the stall keeps the test fast.
	const stall = 200 * time.Millisecond

	type counts struct {
		aborts, hedges, wins, skips                 int64
		abortsTotal, deopts, hedgesTotal, winsTotal int64
		cancelsTotal                                int64
	}
	native := []struct {
		name  string
		apply func(s *TaskSpec)
	}{
		{"ok", func(s *TaskSpec) {}},
		{"abort", func(s *TaskSpec) { s.AbortAfterRecords = 5 }},
		{"kill", func(s *TaskSpec) {
			s.Faults = &faults.Plan{KillReduceAtRecord: 3}
		}},
	}
	modes := []struct {
		name  string
		hedge HedgeConfig
		stall bool
	}{
		{"off", HedgeConfig{}, false},
		{"native-first", HedgeConfig{After: time.Hour}, false},
		{"heap-first", HedgeConfig{After: time.Millisecond}, true},
	}
	unhedged := map[string]struct {
		class string
		c     counts
		spans []string
	}{
		"ok": {"none", counts{},
			[]string{"native-attempt=ok"}},
		"abort": {"none", counts{aborts: 1, abortsTotal: 1, deopts: 1},
			[]string{"heap-attempt=ok", "native-attempt=abort"}},
		"kill": {"transient", counts{},
			[]string{"native-attempt=error"}},
	}
	heapFirst := map[string]struct {
		class string
		c     counts
		spans []string
	}{
		// The hedge wins and the stalled native attempt is canceled
		// before it runs a record, so an abort plan never fires.
		"ok": {"none", counts{hedges: 1, wins: 1, hedgesTotal: 1, winsTotal: 1, cancelsTotal: 1},
			[]string{"heap-hedge=ok", "native-attempt=canceled"}},
		"abort": {"none", counts{hedges: 1, wins: 1, hedgesTotal: 1, winsTotal: 1, cancelsTotal: 1},
			[]string{"heap-hedge=ok", "native-attempt=canceled"}},
		// The heap attempt takes the kill; the task waits for the native
		// attempt, which completes, and succeeds with its output.
		"kill": {"none", counts{hedges: 1, hedgesTotal: 1},
			[]string{"heap-hedge=error", "native-attempt=ok"}},
	}

	prog := pairProgram(t)
	base := Compile(prog)
	if err := base.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	want := baselineOut(t, base, encode(t, base, records))

	for _, m := range modes {
		for _, n := range native {
			t.Run(m.name+"/"+n.name, func(t *testing.T) {
				exp := unhedged[n.name]
				if m.stall {
					exp = heapFirst[n.name]
				}
				// A fresh compiled program per case: deopt_total depends
				// on whether this program's closure was compiled yet.
				c := Compile(pairProgram(t))
				if err := c.CompileDriver("incStage"); err != nil {
					t.Fatal(err)
				}
				spec := TaskSpec{
					Name: "t", Driver: "incStage",
					Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, records)}}},
				}
				n.apply(&spec)
				if m.stall {
					if spec.Faults == nil {
						spec.Faults = &faults.Plan{}
					}
					spec.Faults.NativeDelay = stall
				}
				tr := trace.New()
				e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true, Trace: tr, Hedge: m.hedge}
				res, err := e.RunTask(spec)

				class := "none"
				if err != nil {
					class = Classify(err).String()
				}
				if class != exp.class {
					t.Fatalf("error class = %s (%v), want %s", class, err, exp.class)
				}
				if err == nil && !bytes.Equal(res.Out, want) {
					t.Errorf("output differs from the unhedged baseline")
				}
				if err != nil && res.Out != nil {
					t.Errorf("failed task returned %d output bytes", len(res.Out))
				}
				reg := tr.Registry()
				got := counts{
					aborts: res.Stats.Aborts, hedges: res.Stats.Hedges,
					wins: res.Stats.HedgeWins, skips: res.Stats.NativeSkips,
					abortsTotal:  reg.Counter("aborts_total").Value(),
					deopts:       reg.Counter("deopt_total").Value(),
					hedgesTotal:  reg.Counter("hedges_total").Value(),
					winsTotal:    reg.Counter("hedge_wins_total").Value(),
					cancelsTotal: reg.Counter("hedge_cancels_total").Value(),
				}
				if got != exp.c {
					t.Errorf("counters = %+v, want %+v", got, exp.c)
				}
				var spans []string
				for _, ev := range tr.Events() {
					if ev.Cat == "attempt" && ev.Ph == "X" {
						spans = append(spans, fmt.Sprintf("%s=%v", ev.Name, ev.Args["outcome"]))
					}
				}
				sort.Strings(spans)
				if fmt.Sprint(spans) != fmt.Sprint(exp.spans) {
					t.Errorf("attempt spans = %v, want %v", spans, exp.spans)
				}
			})
		}
	}
}
