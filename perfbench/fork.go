package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"time"
)

// forks is how many fresh processes an end-to-end measurement is split
// across. Each fork draws its own inputs, and the metrics pool the jobs
// of all forks, so that no one input set or process sets them: the
// median service job time of one fork's inputs differed by up to 40%
// from another's.
const forks = 4

// setups is how many times each fork sets up its workload; the last
// set-up is the one measured. A set-up takes under a second, so one
// alone reads the machine's noise of that moment: on a shared 2-vCPU
// machine one seed's set-up took 0.36–0.55 s from one process to the
// next. setup_s is the median of all forks' set-ups, in reference
// seconds.
const setups = 2

// forkSeed is the input seed of one fork of a run with the given seed;
// the traced run uses fork 0's inputs.
func forkSeed(seed int64, fork int) int64 { return seed*forks + int64(fork) }

// forkEnv carries a forkSpec, as JSON, to a forked process.
const forkEnv = "PERFBENCH_FORK"

// forkSpec is one forked process's share of a measurement.
type forkSpec struct {
	Workload string
	Seed     int64
	Fork     int
	D        time.Duration
	Tiny     bool
}

// forkResult is what a fork reports to its parent: its measurement's
// jobs and resident set samples, for the parent to pool, and its set-up
// times.
type forkResult struct {
	Attempted, Failed, Records, PeakSum int64
	RunRefMs                            float64
	JobMs, StepMs, RSS                  []float64
	Setups                              []float64
}

// measureForks runs spec in forks fresh processes, one after another,
// and reports the end-to-end metrics over all their jobs and resident
// set samples. setup_s is the median of all their set-ups.
func measureForks(spec forkSpec) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	all := &tally{}
	var setupS []float64
	for i := 0; i < forks; i++ {
		spec.Fork = i
		js, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), forkEnv+"="+string(js))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s fork %d: %w", spec.Workload, i, err)
		}
		var res forkResult
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("%s fork %d: reading its result: %w", spec.Workload, i, err)
		}
		all.attempted += res.Attempted
		all.failed += res.Failed
		all.records += res.Records
		all.peakSum += res.PeakSum
		all.runRefMs += res.RunRefMs
		all.jobMs = append(all.jobMs, res.JobMs...)
		all.stepMs = append(all.stepMs, res.StepMs...)
		setupS = append(setupS, res.Setups...)
		all.rss = append(all.rss, res.RSS...)
	}
	return endToEnd(all, median(setupS)), nil
}

// runFork is the whole of a forked process: set up, measure its share,
// and print its result as JSON. It returns the process's exit code.
func runFork(specJSON string) int {
	rep, err := fork(specJSON)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fork:", err)
		return 1
	}
	return 0
}

func fork(specJSON string) (*forkResult, error) {
	var spec forkSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return nil, fmt.Errorf("reading %s: %w", forkEnv, err)
	}
	if _, ok := workloads[spec.Workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var r runner
	var cleanup func()
	var took []float64
	// Each set-up is timed in reference seconds, at the speeds sampled
	// just before and just after it.
	var c clock
	for i := 0; i < setups; i++ {
		if cleanup != nil {
			cleanup()
		}
		var d time.Duration
		var err error
		c.sample()
		start := time.Now()
		r, d, cleanup, err = setUp(spec.Workload, forkSeed(spec.Seed, spec.Fork), spec.Tiny)
		if err != nil {
			return nil, err
		}
		c.sample()
		took = append(took, float64(d)/c.kernelAt(start.Add(d/2))/1e3)
	}
	if c.err != nil {
		return nil, c.err
	}
	defer cleanup()
	// Memory set-up no longer needs goes back to the system, so that
	// the resident set sampled while measuring is the measurement's.
	debug.FreeOSMemory()
	t := r.measure(spec.D, nil)
	if t.err != nil {
		return nil, t.err
	}
	return &forkResult{
		Attempted: t.attempted, Failed: t.failed, Records: t.records, PeakSum: t.peakSum,
		RunRefMs: t.runRefMs, JobMs: t.jobMs, StepMs: t.stepMs, RSS: t.rss,
		Setups: took,
	}, nil
}
