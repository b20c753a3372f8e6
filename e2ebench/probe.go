package main

import (
	"slices"
	"time"
)

// The benchmark's host is shared: over a few minutes its speed drifts by as
// much as half, and every timing with it. A fixed kernel that uses none of
// the repository's code is run probeRuns times right before and right after
// each unit, and a run's timings are scaled by the median of all those
// kernel times to the speed at which the kernel takes probeRef. NOTES.md
// gives the spreads with and without the scaling on the same runs. The raw
// host times stay in the per-layer spans.

// probeRef is the reference kernel time: timings are reported at the host
// speed at which the kernel takes this long, close to its median on the
// host the baseline in NOTES.md was recorded on.
const probeRef = 100 * time.Millisecond

// probeRuns is how many times the kernel runs at each probe point.
const probeRuns = 5

// probe runs the kernel probeRuns times and returns each run's time.
func probe() []time.Duration {
	out := make([]time.Duration, probeRuns)
	for i := range out {
		out[i] = probeOnce()
	}
	return out
}

// probeBuf holds the kernel's tables, allocated once, so the probe itself
// allocates nothing: a collection still running after a unit slows it
// only by the CPU it takes, not through allocation assists.
var probeBuf = struct {
	next, keys, sorted []uint32
	m                  map[uint32]uint32
}{
	next:   make([]uint32, 1<<20),
	keys:   make([]uint32, 0, 1<<16),
	sorted: make([]uint32, 0, 1<<16),
	m:      make(map[uint32]uint32, 1<<16),
}

// probeOnce times map updates driven by a pointer chase through a 4 MB
// table, then sorts the map's contents: the mix of hashing, dependent loads
// and branching that dominates a simulation run.
func probeOnce() time.Duration {
	b := &probeBuf
	st := time.Now()
	x := uint32(2463534242)
	for i := range b.next {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b.next[i] = x & (1<<20 - 1)
	}
	clear(b.m)
	p := uint32(0)
	for i := 0; i < 4_000_000; i++ {
		p = b.next[p]
		b.m[p&(1<<16-1)] += p
	}
	b.keys = b.keys[:0]
	for k, v := range b.m {
		b.keys = append(b.keys, k^v)
	}
	for r := 0; r < 3; r++ {
		b.sorted = append(b.sorted[:0], b.keys...)
		slices.Sort(b.sorted)
	}
	probeSink = p
	return time.Since(st)
}

// probeSink keeps the chase from being optimized away.
var probeSink uint32

// speedScale converts host time measured while the probe took p to time at
// the reference speed.
func speedScale(p time.Duration) float64 { return probeRef.Seconds() / p.Seconds() }
