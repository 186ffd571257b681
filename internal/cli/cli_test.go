package cli

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// TestSharedFlagNames pins the shared flag set: names and defaults are
// part of both commands' interface.
func TestSharedFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	sort.Strings(got)
	want := []string{
		"checkpoint-every=0", "engine=compiled", "flame=", "hedge-after=0s",
		"hedge-mult=0", "iters=3", "metrics-json=", "obs-addr=", "obs-hold=0s",
		"partitions=4", "profiles=", "replicas=0", "scale=2", "shuffle-budget=0",
		"shuffle-bw=0", "shuffle-compress=", "shuffle-latency=0s",
		"stage-deadline=0s", "trace=", "workers=4",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("shared flags:\n got %v\nwant %v", got, want)
	}
}

// parse registers the shared flags, parses args and opens the session.
func parse(t *testing.T, args ...string) (bench.Config, *Session, error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Open()
}

// TestNoFlagsNoSession pins the zero-cost contract: with no obs flag set
// the session holds no tracer, server or stage hook, and closing it is
// silent.
func TestNoFlagsNoSession(t *testing.T) {
	cfg, s, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.Scale != 2 || cfg.Backend != engine.BackendCompiled {
		t.Fatalf("defaults not resolved: %+v", cfg)
	}
	if cfg.Trace != nil || cfg.StageHook != nil || s.Server != nil {
		t.Fatalf("obs state armed with no obs flag: trace=%v hook=%v server=%v",
			cfg.Trace != nil, cfg.StageHook != nil, s.Server != nil)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWritesArtifacts: each artifact flag yields its file on
// Close, and the profile store records the stage the hook observed.
func TestSessionWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	cfg, s, err := parse(t, "-trace", path("t.json"), "-metrics-json", path("m.json"),
		"-flame", path("f.folded"), "-profiles", path("p.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace.StartSpan("job", "PR").End()
	cfg.StageHook("PR", engine.Gerenuk, "s0", &metrics.Breakdown{}, time.Millisecond)
	if err := s.Close(map[string]any{"app": "PR"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.json", "m.json", "f.folded", "p.json"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if b, _ := os.ReadFile(path("p.json")); !strings.Contains(string(b), `"s0"`) {
		t.Errorf("profile store missing the hooked stage: %s", b)
	}
}

func TestBadEngineRejected(t *testing.T) {
	if _, _, err := parse(t, "-engine", "jit"); err == nil {
		t.Fatal("unknown -engine accepted")
	}
}
