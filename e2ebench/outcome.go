package main

import (
	"encoding/binary"
	"hash/fnv"
)

// outcomeHash digests what a unit simulated, independent of host timing:
// per protocol pass, the events executed, link crossings by class, drops by
// reason, deliveries judged against the schedule, the delay histogram and
// the forwarding state left at the end. Repeated, traced and sharded runs of
// one input must agree on it. Peak timer population is left out: a sharded
// run reports the sum of per-shard peaks.
func outcomeHash(ps []*pass) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, p := range ps {
		h.Write([]byte(p.proto))
		put(p.events)
		put(p.ctrl)
		put(p.data)
		put(p.received)
		for _, d := range p.drops {
			put(d)
		}
		put(p.deliv.expected)
		put(p.deliv.ok)
		put(p.deliv.dup)
		put(p.deliv.strays)
		for _, n := range p.deliv.delayMS {
			put(n)
		}
		put(p.entries)
	}
	return h.Sum64()
}
