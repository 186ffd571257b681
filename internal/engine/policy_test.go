package engine_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/trace"
)

func incStage(t *testing.T, c *Compiled, parts int) Stage {
	t.Helper()
	specs := make([]TaskSpec, parts)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "inc-" + string(rune('a'+i)), Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 10+i)}}},
		}
	}
	return Stage{Name: "inc", C: c, Mode: Gerenuk, Workers: 2, Specs: specs}
}

// TestRunStageMatchesPool checks RunStage compiles the driver itself and
// returns the same outputs as a bare pool over the same tasks.
func TestRunStageMatchesPool(t *testing.T) {
	c := Compile(pairProgram(t))
	st := incStage(t, c, 3)
	job, err := RunStage(&Policy{}, st)
	if err != nil {
		t.Fatal(err)
	}
	pool := &Pool{Workers: 1}
	ref, err := pool.Run(func() *Executor { return &Executor{C: c, Mode: Baseline} }, st.Specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Outputs {
		if !bytes.Equal(job.Outputs[i], ref.Outputs[i]) {
			t.Fatalf("task %d: RunStage output differs from the pool's", i)
		}
	}
}

// TestRunStageCanceled checks a closed Canceled channel stops the stage
// before any task runs.
func TestRunStageCanceled(t *testing.T) {
	c := Compile(pairProgram(t))
	canceled := make(chan struct{})
	close(canceled)
	tr := trace.New()
	job, err := RunStage(&Policy{Canceled: canceled, Trace: tr}, incStage(t, c, 2))
	if !errors.Is(err, ErrCanceled) || job != nil {
		t.Fatalf("RunStage after cancel = (%v, %v), want (nil, ErrCanceled)", job, err)
	}
	if n := len(tr.Events()); n != 0 {
		t.Errorf("canceled stage emitted %d trace events", n)
	}
}

// TestRunStageRetriesTimedOutStage checks a stage that outlives its
// deadline is re-executed once under name#retry, and that the retry's
// timeout is the stage's error.
func TestRunStageRetriesTimedOutStage(t *testing.T) {
	c := Compile(pairProgram(t))
	tr := trace.New()
	p := &Policy{StageDeadline: time.Millisecond, Trace: tr,
		Injector: &faults.Injector{Seed: 1, DelayRate: 1, Delay: 50 * time.Millisecond}}
	_, err := RunStage(p, incStage(t, c, 1))
	if !errors.Is(err, recovery.ErrStageTimeout) {
		t.Fatalf("err = %v, want a stage timeout", err)
	}
	var stages []string
	for _, e := range tr.Events() {
		if e.Name == "stage-timeout" {
			stages = append(stages, e.Args["stage"].(string))
		}
	}
	if len(stages) != 2 || stages[0] != "inc" || stages[1] != "inc#retry" {
		t.Errorf("watchdog fired for %q, want [inc inc#retry]", stages)
	}
}

// TestPolicyStoresScopeByJobID checks shared stores come back scoped by
// JobID and nil ones come back private.
func TestPolicyStoresScopeByJobID(t *testing.T) {
	shared := recovery.NewCheckpointStore()
	p := &Policy{Checkpoints: shared, JobID: "job-1"}
	ckpts, lin := p.Stores()
	if lin == nil {
		t.Fatal("nil lineage with no shared registry")
	}
	ckpts.Save("task", 1, []byte("x"))
	if _, ok, _ := shared.Load("task"); ok {
		t.Error("JobID-scoped save visible unscoped")
	}
	if _, ok, _ := shared.Scope("job-1").Load("task"); !ok {
		t.Error("JobID-scoped save missing from the shared store")
	}
	private, _ := (&Policy{}).Stores()
	private.Save("task", 1, []byte("y"))
	if shared.Len() != 1 {
		t.Errorf("private store leaked into the shared one (len %d)", shared.Len())
	}
}

// TestRunTaskUnknownDriver checks a driver the program does not define
// fails to compile and fails as a task, instead of running nothing.
func TestRunTaskUnknownDriver(t *testing.T) {
	c := Compile(pairProgram(t))
	if err := c.CompileDriver("missing"); err == nil {
		t.Error("CompileDriver accepted an unknown driver")
	}
	for _, mode := range []Mode{Baseline, Gerenuk} {
		e := &Executor{C: c, Mode: mode}
		if _, err := e.RunTask(TaskSpec{Name: "t", Driver: "missing"}); err == nil {
			t.Errorf("%v: RunTask accepted an unknown driver", mode)
		}
	}
	st := Stage{Name: "missing", C: c, Mode: Gerenuk, Workers: 1,
		Specs: []TaskSpec{{Name: "t", Driver: "missing"}}}
	if _, err := RunStage(&Policy{}, st); err == nil {
		t.Error("RunStage accepted an unknown driver")
	}
}

// TestUntransformableDriverRunsOnHeap checks a driver whose input type
// has no inline layout (a recursive class) compiles as untransformable
// and still runs in Gerenuk mode — on the heap path, without counting
// an abort, and with the baseline's output.
func TestUntransformableDriverRunsOnHeap(t *testing.T) {
	reg := model.NewRegistry()
	reg.Define(model.ClassDef{Name: "Node", Fields: []model.FieldDef{
		{Name: "v", Type: model.Prim(model.KindLong)},
		{Name: "next", Type: model.Object("Node")}, // recursive: no inline layout
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Node"}
	b := ir.NewFuncBuilder(prog, "idUDF", model.Type{})
	b.EmitRecord(b.Param("p", model.Object("Node")))
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "idStage", "idUDF", "Node")

	c := Compile(prog)
	if err := c.CompileDriver("idStage"); err != nil {
		t.Fatal(err)
	}
	if c.SERs["idStage"].Transformable || c.CanRunNative("idStage") {
		t.Fatal("recursive input type reported transformable")
	}
	// Without a layout the class cannot be encoded, so the task runs
	// over an empty input; what matters is the mode dispatch.
	spec := TaskSpec{Name: "t", Driver: "idStage",
		Invocations: []map[string]Input{{"in": {Class: "Node"}}}}
	var outs [][]byte
	for _, mode := range []Mode{Baseline, Gerenuk} {
		res, err := (&Executor{C: c, Mode: mode}).RunTask(spec)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.Aborts != 0 {
			t.Errorf("%v: heap fallback counted %d aborts", mode, res.Stats.Aborts)
		}
		outs = append(outs, res.Out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("untransformable driver's Gerenuk output differs from the baseline's")
	}
}

// TestSortByKeyStable checks SortByKey orders records by key and keeps
// same-key records in their input order.
func TestSortByKeyStable(t *testing.T) {
	c := Compile(pairProgram(t))
	var buf []byte
	for _, kv := range [][2]float64{{3, 0}, {1, 1}, {3, 2}, {2, 3}, {1, 4}} {
		var err error
		buf, err = c.Codec.Encode("Pair", serde.Obj{"key": int64(kv[0]), "value": kv[1]}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	sorted := SortByKey(c, "Pair", "key", buf)
	var got []float64
	for _, off := range RecordOffsets(sorted) {
		v, _, err := c.Codec.Decode("Pair", sorted, off)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v.(serde.Obj)["value"].(float64))
	}
	want := []float64{1, 4, 3, 0, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("sorted values = %v, want %v", got, want)
		}
	}
}
