package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// tenantNames are the service's tenants: etl runs the Table 2 programs
// and ml the Table 1 programs plus StackOverflowAnalytics, both in
// gerenuk mode; legacy runs baseline-mode jobs.
var tenantNames = []string{"etl", "ml", "legacy"}

// tenantWeights are the tenants' fair-share weights.
var tenantWeights = map[string]int{"etl": 2, "ml": 1, "legacy": 1}

// legacyApps are the programs the legacy tenant runs in baseline mode.
var legacyApps = []string{"PR", "KM", "IUF", "IMC"}

// offeredRate is the service's offered load in jobs per reference
// second, about a fifth of its untraced capacity on one CPU. At 20 the
// 90th-percentile job time spread 0.10–0.15 across ten seeds, at 15
// 0.07.
//
// The generator spaces arrivals in reference time, at the machine's
// last sampled speed, so the load stays a fixed share of the service's
// capacity while the machine slows down and speeds up. At a rate fixed
// in wall time a slow stretch of the machine raised the load, queueing
// amplified that, and reference time could not undo it: the 90th
// percentile job time doubled while the kernel slowed 1.6x. A closed
// loop, whose load also follows the machine's speed, ran four times as
// many jobs, and the service keeps every finished job's checkpoints and
// lineage, so its resident set grew with them.
const offeredRate = 15

// tenantJob is one kind of job the generator submits.
type tenantJob struct {
	tenant string
	mode   engine.Mode
	in     *appInput
}

// arrival is one scheduled submission: how long after the previous one
// it is due, in reference time, and which kind of job it is.
type arrival struct {
	gap time.Duration
	job *tenantJob
}

// tenantsRunner drives an open loop against one cluster service:
// seeded Poisson arrivals at a fixed offered rate, the job kinds drawn
// from shuffled decks holding every kind once, so the mix is exact.
type tenantsRunner struct {
	kinds    []*tenantJob
	env      jobEnv
	lead     time.Duration // warm-up at the head of each schedule, not measured
	seed     int64
	gen      time.Duration
	measures int64
}

func setUpTenants(seed int64, sz sizes, scratch string) (runner, error) {
	r := &tenantsRunner{
		env:  jobEnv{hadoopShuffle: spillingShuffle(scratch)},
		lead: sz.lead, seed: seed,
	}
	inputs := map[string]*appInput{}
	input := func(app string) (*appInput, error) {
		if in, ok := inputs[app]; ok {
			return in, nil
		}
		// SOA's combine is quadratic in a user's posts; at size 1 its
		// jobs cost about what the others cost at the service size.
		size := sz.tenants
		if app == "SOA" {
			size = 1
		}
		in, gen, err := prepare(app, size, appSeed(seed, app), r.env)
		r.gen += gen
		inputs[app] = in
		return in, err
	}
	add := func(tenant string, mode engine.Mode, apps []string) error {
		for _, app := range apps {
			in, err := input(app)
			if err != nil {
				return err
			}
			r.kinds = append(r.kinds, &tenantJob{tenant: tenant, mode: mode, in: in})
		}
		return nil
	}
	if err := add("etl", engine.Gerenuk, hadoopNames); err != nil {
		return nil, err
	}
	if err := add("ml", engine.Gerenuk, append(append([]string(nil), sparkNames...), "SOA")); err != nil {
		return nil, err
	}
	if err := add("legacy", engine.Baseline, legacyApps); err != nil {
		return nil, err
	}
	// Warm up: one job of every kind, outside the service.
	for _, k := range r.kinds {
		env := r.env
		env.mode = k.mode
		if _, err := runJob(k.in, env); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *tenantsRunner) genMs() float64 { return ms(r.gen) }

// schedule draws the arrivals of one measurement, enough to span the
// reference time span; each measurement of a run draws a fresh
// schedule.
func (r *tenantsRunner) schedule(span time.Duration) []arrival {
	r.measures++
	rng := rand.New(rand.NewSource(r.seed*7919 + r.measures))
	var out []arrival
	var deck []int
	for at := time.Duration(0); at < span; {
		gap := time.Duration(rng.ExpFloat64() / offeredRate * float64(time.Second))
		at += gap
		if len(deck) == 0 {
			deck = rng.Perm(len(r.kinds))
		}
		out = append(out, arrival{gap: gap, job: r.kinds[deck[0]]})
		deck = deck[1:]
	}
	return out
}

// outcome is what the generator and the service record of one arrival.
type outcome struct {
	due, submitted, started, finished time.Time
	rejected, ok                      bool
	stats                             metrics.Breakdown
	stages                            []time.Duration
}

// measure replays a fresh schedule against a fresh service, whose
// breakers learn during the lead, and tallies the jobs due after the
// lead, each timed from when it was due. A sampler goroutine reads the
// machine's speed meanwhile; on one CPU it takes about 2% of it.
// Arrivals stop when the lead and d have passed, or when the schedule
// runs out, which takes a machine four times as fast as the reference.
func (r *tenantsRunner) measure(d time.Duration, tr *tracing) *tally {
	sched := r.schedule(4 * (r.lead + d))
	outs := make([]outcome, len(sched))
	var c clock
	c.sample()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	svc := cluster.New(cluster.Config{
		Workers: workers,
		Breaker: engine.NewBreaker(3),
		Trace:   tr.tracer(),
	})
	for _, name := range tenantNames {
		svc.ConfigureTenant(name, cluster.TenantConfig{Weight: tenantWeights[name]})
	}
	var wg sync.WaitGroup
	win := tr.begin()
	start := time.Now()
	due := start
	for i, a := range sched {
		due = due.Add(c.wall(a.gap))
		if due.Sub(start) >= r.lead+d {
			sched = sched[:i]
			break
		}
		time.Sleep(time.Until(due))
		o, k := &outs[i], a.job
		o.due, o.submitted = due, time.Now()
		spec := cluster.JobSpec{
			Name: fmt.Sprintf("%s/%s", k.in.app, k.mode),
			Run: func(jc *cluster.JobContext) ([]byte, error) {
				o.started = time.Now()
				env := r.env
				env.mode = k.mode
				env.trace = jc.Trace
				env.tenant, env.jobID = jc.Tenant, jc.JobID
				env.breaker = jc.Breaker
				env.checkpoints, env.lineage = jc.Checkpoints, jc.Lineage
				env.canceled = jc.Canceled
				res, err := runJob(k.in, env)
				o.stats, o.stages = res.stats, res.stages
				return res.out, err
			},
		}
		j, err := svc.Submit(k.tenant, spec)
		if err != nil {
			o.rejected = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.Done()
			o.finished = time.Now()
			out, err := j.Await()
			o.ok = err == nil && bytes.Equal(out, k.in.oracle)
		}()
	}
	wg.Wait()
	svc.Close()
	win.End()
	close(stop)
	<-sampled
	c.sample()

	t := &tally{wall: d, tenantMs: map[string][]float64{}}
	for i, a := range sched {
		o, due := &outs[i], outs[i].due
		if due.Sub(start) < r.lead {
			if !o.rejected {
				t.ran++
			}
			continue
		}
		t.lateMax = max(t.lateMax, o.submitted.Sub(due))
		if o.rejected {
			t.rejected++
			t.attempted++
			t.failed++
			continue
		}
		took, run := o.finished.Sub(due), o.finished.Sub(o.started)
		t.job(o.ok, op{due, took, run, o.stages}, o.stats, o.stats.Records)
		t.queueMs = append(t.queueMs, ms(o.started.Sub(o.submitted)))
		t.runMs = append(t.runMs, ms(run))
		t.tenantMs[a.job.tenant] = append(t.tenantMs[a.job.tenant], ms(took))
	}
	t.reference(&c)
	return t
}
