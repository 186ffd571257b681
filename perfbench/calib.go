package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The end-to-end timings are in reference time: wall time divided by
// how long a fixed calibration kernel took at that moment. A reference
// millisecond is the time the kernel takes, so the figures read as
// milliseconds on a machine whose speed does not change.
//
// A shared machine's speed does change. On a 2-vCPU host a process on
// one CPU ran the kernel in 1.05–1.15 ms in its fast stretches and in
// 1.5–1.8 ms in its slow ones, switching every few seconds, with little
// hypervisor steal (0–4%); batch jobs slowed with it (correlation
// 0.67–0.83 per program). Across the 6-second stretches of one
// 90-second batch run, the median job time spread 0.23 (interquartile
// range over median) in wall time and 0.04 in reference time. The
// kernel is the benchmark's own code, so a change to the program moves
// the jobs but not the kernel.

// calibN is the kernel's record count; the kernel takes about 1 ms.
const calibN = 1 << 13

// calibState is the kernel's input and scratch space, allocated once,
// so that the kernel neither allocates nor triggers garbage collection.
type calibState struct {
	keys []string
	m    map[string]uint64
	vals []uint64
	buf  []byte
}

var calib = func() *calibState {
	c := &calibState{
		m:    map[string]uint64{},
		vals: make([]uint64, calibN),
		buf:  make([]byte, 0, calibN*binary.MaxVarintLen64),
	}
	x := uint64(88172645463325252)
	for range calibN {
		x = xorshift(x)
		k := string(binary.AppendUvarint(nil, x%(calibN/2)))
		c.keys = append(c.keys, k)
		c.m[k] += x
	}
	return c
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibSink keeps the kernel's result alive.
var calibSink uint64

// kernel runs the calibration kernel once and returns how long it took.
// Like the programs it looks up string keys in a hash map, encodes
// varints into a buffer, checksums it and sorts. It works in calib's
// buffers, so only one goroutine of a process may run it.
func kernel() time.Duration {
	start := time.Now()
	c, x := calib, uint64(2463534242)
	buf := c.buf[:0]
	for i, k := range c.keys {
		x = xorshift(x)
		c.vals[i] = c.m[k] ^ x
		buf = binary.AppendUvarint(buf, c.vals[i])
	}
	slices.Sort(c.vals)
	calibSink += uint64(crc32.ChecksumIEEE(buf)) + c.vals[calibN/2]
	return time.Since(start)
}

// sampleEvery is how often a measurement samples the machine's speed.
// The machine switches speed every few seconds; a sample costs three
// kernels, about 2% of the time at this rate.
const sampleEvery = 200 * time.Millisecond

// clock samples the machine's speed through a measurement and converts
// wall time into reference time. With each speed it samples the
// process's resident set.
type clock struct {
	mu      sync.Mutex
	samples []speedSample // in time order
	err     error         // the first failure to read the resident set
}

type speedSample struct {
	at  time.Time
	k   time.Duration
	rss float64 // bytes
}

// sample runs the kernel three times and records the fastest run. The
// first run pulls the kernel's data back into the caches the program
// used, and a collection cycle can slow any one run, so the fastest
// reads the machine, not the program that ran before it.
func (c *clock) sample() {
	k := kernel()
	for range 2 {
		k = min(k, kernel())
	}
	rss, err := residentBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.samples = append(c.samples, speedSample{time.Now(), k, rss})
}

// residentBytes reads the process's resident set size.
func residentBytes() (float64, error) {
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	// The second field is the resident set in pages.
	fields := strings.Fields(string(statm))
	if len(fields) < 2 {
		return 0, fmt.Errorf("reading resident set: /proc/self/statm reads %q", statm)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()), nil
}

// due reports whether the last sample is older than sampleEvery.
func (c *clock) due() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples) == 0 || time.Since(c.samples[len(c.samples)-1].at) >= sampleEvery
}

// wall is the wall time that ref lasts at the last sampled speed.
func (c *clock) wall(ref time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(float64(ref) * ms(c.samples[len(c.samples)-1].k))
}

// kernelAt is the kernel's time at t, interpolated linearly between the
// samples around it.
func (c *clock) kernelAt(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	i := sort.Search(len(s), func(i int) bool { return s[i].at.After(t) })
	switch {
	case i == 0:
		return float64(s[0].k)
	case i == len(s):
		return float64(s[i-1].k)
	}
	a, b := s[i-1], s[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return float64(a.k) + f*float64(b.k-a.k)
}
