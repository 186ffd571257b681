package shuffle

import (
	"fmt"

	"repro/internal/engine"
)

// ForPolicy resolves the exchange configuration a driver hands to
// NewExchange: the reducer count and tracer, the job's lineage registry
// (scoped by JobID), and — where this configuration leaves them unset —
// the policy's fault injector and backoff jitter.
func (c Config) ForPolicy(p *engine.Policy, partitions int) Config {
	c.Partitions = partitions
	c.Trace = p.Trace
	if c.Injector == nil {
		c.Injector = p.Injector
	}
	if c.Jitter == nil {
		c.Jitter = p.Jitter
	}
	if c.Lineage == nil {
		_, c.Lineage = p.Stores()
	}
	return c
}

// WriteMap publishes one map task's whole output through its writer and
// retains its lineage.
func (ex *Exchange) WriteMap(mapTask int, part []byte) error {
	w := ex.Writer(mapTask)
	if err := w.Add(part); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	ex.Retain(mapTask, part)
	return nil
}

// Retain records the lineage of one map task's output: losing every
// replica of its blocks re-runs just this task's writer over part, the
// retained map-output bytes, and the writer's determinism makes the
// rebuilt blocks byte-identical to the lost ones.
func (ex *Exchange) Retain(mapTask int, part []byte) {
	ex.cfg.Lineage.Register(ex.name, mapTask, func() error {
		rw := ex.RecoveryWriter(mapTask)
		if err := rw.Add(part); err != nil {
			return err
		}
		return rw.Close()
	})
}

// Fetch is FetchAll as a job stage under the policy. A canceled job
// discards the exchange instead of fetching it; otherwise the fetch
// runs under the stage watchdog. The exchange is terminal, so a fetch
// has no second act: a timeout surfaces as the caller's error.
func (ex *Exchange) Fetch(p *engine.Policy) ([][]byte, error) {
	if err := engine.Canceled(p.Canceled); err != nil {
		ex.Discard()
		return nil, fmt.Errorf("%s: %w", ex.name, err)
	}
	res, err := p.Guard(ex.name+"/fetch", func() (any, error) { return ex.FetchAll() })
	blocks, _ := res.([][]byte)
	return blocks, err
}
