package main

import "time"

// sizes scales the workloads' inputs and their discarded warm-up.
type sizes struct {
	batch         int           // input size multiplier of batch jobs
	streamWindows int           // windows per streaming run
	tenants       int           // input size multiplier of service jobs
	lead          time.Duration // discarded warm-up before each measurement
}

// fullSizes are the measured sizes. Batch and service jobs take 5–50 ms
// and a streaming run about 50 ms on one CPU, so a run of tens of
// seconds gives hundreds of jobs. A streaming run of 12 windows took
// half as long, and its 90th-percentile time spread 0.15 across ten
// seeds; the longer run averages over more of the machine's changes.
// The first seconds of a process run slower, and the service's breakers
// have to learn which drivers abort, hence the discarded lead before
// each measurement.
var fullSizes = sizes{batch: 4, streamWindows: 24, tenants: 2, lead: 2 * time.Second}

// tinySizes are the self-test's sizes.
var tinySizes = sizes{batch: 1, streamWindows: 3, tenants: 1, lead: 200 * time.Millisecond}
