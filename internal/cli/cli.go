// Package cli holds what the gerenukrun and gerenukbench commands share:
// the run-configuration flags, resolved into one bench.Config, and the
// observability session those flags ask for — tracer, streamed trace
// file, obs server, flame graph, GC-pause attribution and profile store —
// with its ordered teardown.
//
// The session is strictly opt-in: with none of -trace, -metrics-json,
// -obs-addr, -flame or -profiles set it holds no tracer, so no
// subscriber, goroutine or runtime/metrics read exists.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Flags are the shared flags, registered on one flag set by Register.
type Flags struct {
	scale, workers, partitions, iters int
	engine                            string
	hedgeAfter                        time.Duration
	hedgeMult                         float64
	shuffleBudget                     int64
	shuffleCompress                   string
	shuffleLatency                    time.Duration
	shuffleBW                         int64
	replicas, checkpointEvery         int
	stageDeadline                     time.Duration
	trace, metricsJSON, obsAddr       string
	obsHold                           time.Duration
	flame, profiles                   string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.scale, "scale", 2, "workload scale multiplier")
	fs.IntVar(&f.workers, "workers", 4, "executor pool size")
	fs.IntVar(&f.partitions, "partitions", 4, "RDD/shuffle partitions (fewer = more heap pressure per task)")
	fs.IntVar(&f.iters, "iters", 3, "iterations for iterative apps")
	fs.StringVar(&f.engine, "engine", "compiled", "native execution backend: compiled (closure-compiled SERs) or interp (tree-walking interpreter)")
	fs.DurationVar(&f.hedgeAfter, "hedge-after", 0, "hedge straggling native attempts with the heap path after this delay (0 = off)")
	fs.Float64Var(&f.hedgeMult, "hedge-mult", 0, "hedge after this multiple of the observed median task latency (0 = off; needs a tracer, e.g. -metrics-json)")
	fs.Int64Var(&f.shuffleBudget, "shuffle-budget", 0, "map-side shuffle memory budget in bytes (0 = in-memory, >0 spills sorted runs)")
	fs.StringVar(&f.shuffleCompress, "shuffle-compress", "", "shuffle block codec: none|flate|lz4")
	fs.DurationVar(&f.shuffleLatency, "shuffle-latency", 0, "simulated per-block fetch latency")
	fs.Int64Var(&f.shuffleBW, "shuffle-bw", 0, "simulated fetch bandwidth in bytes/sec (0 = infinite)")
	fs.IntVar(&f.replicas, "replicas", 0, "shuffle block replica count (0/1 = no replication)")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 0, "checkpoint task fold state every N invocations (0 = off)")
	fs.DurationVar(&f.stageDeadline, "stage-deadline", 0, "watchdog deadline per stage; hangs become retryable timeouts (0 = off)")
	fs.StringVar(&f.trace, "trace", "", "stream Chrome trace_event JSON of every run to this file")
	fs.StringVar(&f.metricsJSON, "metrics-json", "", "write metrics-registry JSON to this file")
	fs.StringVar(&f.obsAddr, "obs-addr", "", "serve the observability plane (/metrics /healthz /statusz /flamez /debug/pprof) on this address")
	fs.DurationVar(&f.obsHold, "obs-hold", 0, "after the run, wait up to this long for at least one /metrics scrape before exiting (needs -obs-addr)")
	fs.StringVar(&f.flame, "flame", "", "write the span stream as collapsed-stack flame graph text to this file")
	fs.StringVar(&f.profiles, "profiles", "", "accumulate per-(app,mode,stage) profiles into this JSON store")
	return f
}

// Session is one command's observability session. Server is nil unless
// -obs-addr is set; its methods are nil-safe, so callers add status
// sources unconditionally.
type Session struct {
	Server *obs.Server

	f         *Flags
	tr        *trace.Tracer
	traceFile *os.File
	flame     *obs.Flame
	profiles  *obs.ProfileStore
}

// Open resolves the flags into a run configuration and starts the
// observability session they ask for. The configuration carries the
// session's tracer and, when any obs flag is set, the stage hook that
// charges GC pauses to the active (app, mode) and feeds the profile
// store.
func (f *Flags) Open() (bench.Config, *Session, error) {
	backend, err := engine.ParseBackend(f.engine)
	if err != nil {
		return bench.Config{}, nil, err
	}
	s := &Session{f: f}
	obsOn := f.obsAddr != "" || f.flame != "" || f.profiles != ""
	if f.trace != "" || f.metricsJSON != "" || obsOn {
		s.tr = trace.New()
	}
	cfg := bench.Config{Scale: f.scale, Workers: f.workers, Partitions: f.partitions, Iters: f.iters,
		Trace: s.tr, Backend: backend,
		Hedge:         engine.HedgeConfig{After: f.hedgeAfter, MedianMult: f.hedgeMult},
		ShuffleBudget: f.shuffleBudget, ShuffleCompression: f.shuffleCompress,
		ShuffleLatency: f.shuffleLatency, ShuffleBytesPerSec: f.shuffleBW,
		Replicas: f.replicas, CheckpointEvery: f.checkpointEvery, StageDeadline: f.stageDeadline}

	if f.profiles != "" {
		if s.profiles, err = obs.OpenProfileStore(f.profiles); err != nil {
			return cfg, nil, err
		}
	}
	if f.trace != "" {
		if s.traceFile, err = os.Create(f.trace); err != nil {
			return cfg, nil, err
		}
		// Stream events as they are emitted so long runs never hold the
		// whole trace in memory.
		if err := s.tr.StreamTo(s.traceFile); err != nil {
			s.traceFile.Close()
			return cfg, nil, err
		}
	}
	if f.obsAddr != "" {
		s.Server = obs.NewServer(s.tr)
		if err := s.Server.Start(f.obsAddr); err != nil {
			if s.traceFile != nil {
				s.traceFile.Close()
			}
			return cfg, nil, err
		}
		s.flame = s.Server.Flame()
		fmt.Printf("obs: serving http://%s/{metrics,healthz,statusz,flamez,debug/pprof}\n", s.Server.Addr())
	} else if f.flame != "" {
		s.flame = obs.NewFlame()
		s.tr.Subscribe(s.flame.Observe)
	}
	if obsOn {
		// At every stage boundary: charge the GC pauses that landed in
		// the stage's window to the active (app, mode), fold the charge
		// into the stage's breakdown (it propagates into job totals), and
		// feed the enriched stats to the profile store.
		gcAttr := obs.NewGCAttributor(s.tr)
		cfg.StageHook = func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
			stats.GCAttributed += gcAttr.StageEnd(app, mode.String(), stage)
			s.profiles.Record(app, mode.String(), stage, stats, wall)
		}
	}
	return cfg, s, nil
}

// Close tears the session down in order: wait out -obs-hold for a
// scrape, export the flame graph (before the trace stream closes, so the
// export instant is part of the trace), save the profile store, close
// the trace stream, write the metrics JSON with extra merged in, and
// close the server. Every step runs; their errors come back joined.
func (s *Session) Close(extra map[string]any) error {
	f := s.f
	var errs []error
	if s.Server != nil && f.obsHold > 0 {
		if s.Server.Scrapes() == 0 {
			fmt.Printf("obs: holding up to %v for a /metrics scrape\n", f.obsHold)
		}
		if !s.Server.WaitScraped(f.obsHold) {
			fmt.Fprintln(os.Stderr, "obs: hold expired with no scrape")
		}
	}
	if f.flame != "" {
		s.tr.Instant("obs", "flame-export",
			trace.Str("path", f.flame), trace.I64("spans", s.flame.Spans()))
		if err := s.flame.WriteFoldedFile(f.flame); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Printf("flame: wrote %s (%d spans folded; render with flamegraph.pl)\n", f.flame, s.flame.Spans())
		}
	}
	if s.profiles != nil {
		if err := s.profiles.Save(); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Printf("profiles: %s now holds %d (app,mode,stage) records\n", f.profiles, s.profiles.Len())
		}
	}
	if s.traceFile != nil {
		err := errors.Join(s.tr.CloseStream(), s.traceFile.Close())
		if err == nil {
			fmt.Printf("trace: streamed %s (load in Perfetto or chrome://tracing)\n", f.trace)
		}
		errs = append(errs, err)
	}
	if f.metricsJSON != "" {
		if err := s.tr.WriteMetricsJSONFile(f.metricsJSON, extra); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Printf("metrics: wrote %s\n", f.metricsJSON)
		}
	}
	if s.Server != nil {
		s.Server.Close()
	}
	return errors.Join(errs...)
}
