// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads against the public entry points of the
// reproduction — the Spark and Hadoop drivers, the micro-batch
// streaming driver and the multi-tenant cluster service — for a fixed
// time, checks every output against an oracle computed during set-up,
// and prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (timings, memory,
// set-up time), each the median over several forked processes; with
// --trace 1 they are the per-layer ones, measured in one process in an
// untraced half and a traced half. BENCHMARK.json at the repository
// root names every metric and the reason for every workload;
// README.md here says which end-to-end metric each per-layer one should
// move.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workers is the worker count of the cluster service and of every engine
// pool. The process itself runs on one CPU (GOMAXPROCS 1): on a shared
// 2-vCPU machine, a second one let hypervisor steal and cross-CPU
// wake-ups spread a streaming run's time up to 2.4x between runs, while
// on one CPU the workers still interleave and jobs still contend.
var workers = min(2, runtime.NumCPU())

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc sets up one benchmark workload: it generates its inputs
// from the seed, computes the oracles and warms up; the returned runner
// then measures for a given time.
type workloadFunc func(seed int64, sz sizes, scratch string) (runner, error)

// runner measures one workload for d, tracing every call into the
// program through tr when tr is non-nil. genMs is the time set-up spent
// generating and encoding inputs.
type runner interface {
	measure(d time.Duration, tr *tracing) *tally
	genMs() float64
}

var workloads = map[string]workloadFunc{
	"batch":   setUpBatch,
	"stream":  setUpStream,
	"tenants": setUpTenants,
}

func main() {
	if spec := os.Getenv(forkEnv); spec != "" {
		os.Exit(runFork(spec))
	}
	name := flag.String("workload", "", "workload: batch, stream or tenants")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	var rep *report
	err := fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	if *traced == 0 || *traced == 1 {
		rep, err = run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, false)
	}
	if err == nil {
		var line []byte
		if line, err = json.Marshal(rep); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload for d and returns its report: the
// end-to-end metrics of forked processes, or the per-layer metrics
// measured in this one. tiny selects the self-test's sizes.
func run(name string, seed int64, d time.Duration, traced, tiny bool) (*report, error) {
	if _, ok := workloads[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if !traced {
		return measureForks(forkSpec{Workload: name, Seed: seed, D: d / forks, Tiny: tiny})
	}
	r, _, cleanup, err := setUp(name, forkSeed(seed, 0), tiny)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return measureLayers(r, d), nil
}

// setUp prepares a workload in this process, which then runs on one CPU:
// it makes the scratch directory, generates the inputs, computes the
// oracles and warms up. It returns the set-up time and a function that
// removes the scratch directory.
func setUp(name string, seed int64, tiny bool) (runner, time.Duration, func(), error) {
	runtime.GOMAXPROCS(1)
	sz := fullSizes
	if tiny {
		sz = tinySizes
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, 0, nil, err
	}
	cleanup := func() { os.RemoveAll(scratch) }
	start := time.Now()
	r, err := workloads[name](seed, sz, scratch)
	if err != nil {
		cleanup()
		return nil, 0, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	return r, time.Since(start), cleanup, nil
}

// scratchDir makes a private directory for shuffle spill files inside
// the build directory, which lies inside the checkout.
func scratchDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("making %s: %w", base, err)
	}
	dir, err := os.MkdirTemp(base, "scratch-")
	if err != nil {
		return "", fmt.Errorf("making scratch directory: %w", err)
	}
	return dir, nil
}
