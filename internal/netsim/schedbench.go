package netsim

// Deterministic scheduler workloads shared by the in-package benchmarks
// (BenchmarkSchedulerChurn/Dense) and cmd/pimbench, which replays them via
// testing.Benchmark to record ns/op and allocs/op in the BENCH_scale.json
// ledger. They live in a non-test file so the bench harness can import
// them; they use a fixed-seed LCG (no math/rand, no wall clock) so every
// run sees the byte-identical operation sequence.

// benchParked is the background population of long-deadline soft-state
// timers both workloads run on top of; the wheel files them in its upper
// levels.
const benchParked = 1 << 20

func benchNop() {}

// benchLCG advances the 64-bit linear congruential generator (Knuth MMIX
// constants) used to derive workload deadlines.
func benchLCG(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// PrepSchedulerBench returns a scheduler preloaded with benchParked timers
// parked 1000-2000 simulated seconds out — far enough that neither workload
// ever reaches them, close enough to stay inside the wheel's 2^32 µs span.
func PrepSchedulerBench() *Scheduler {
	s := NewScheduler()
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < benchParked; i++ {
		rng = benchLCG(rng)
		// Post, not After: the background population should cost the
		// queue its size-dependent work without adding 64k
		// Timer objects for the GC to mark on every cycle the measured
		// loop's allocations trigger.
		s.Post(1000*Second+Time(rng%uint64(1000*Second)), benchNop)
	}
	return s
}

// SchedulerChurn runs n cancel-heavy rounds over a resident set of 512
// refresh timers: each round re-arms one (Reset = cancel the old entry +
// schedule a new one), a 64th of the rounds retire a timer outright with
// Stop and replace it via After, and every 16th round fires one fill-in
// event so the clock creeps forward and the wheel's cursor reclaims the
// cancelled entries. This is the §2/§3.8 soft-state pattern — every
// received control message re-arms an expiry timer long before it fires —
// and it is where the heap pays O(log n) per re-arm while the wheel pays
// O(1).
func SchedulerChurn(s *Scheduler, n int) {
	const ring = 512 // re-armed every ~320 µs of sim time, well under the deadlines
	timers := make([]*Timer, ring)
	for i := range timers {
		timers[i] = s.After(10*Millisecond, benchNop)
	}
	rng := uint64(12345)
	for i := 0; i < n; i++ {
		rng = benchLCG(rng)
		d := Millisecond + Time(rng&1023)
		tm := timers[i&(ring-1)]
		if i&63 == 1 {
			tm.Stop()
			timers[i&(ring-1)] = s.After(d, benchNop)
		} else {
			tm.Reset(d)
		}
		if i&15 == 0 {
			s.Post(10, benchNop)
			s.Step()
		}
	}
}

// SchedulerDense runs n fire-heavy rounds: 64 self-re-arming event streams
// with jittered sub-millisecond periods, stepped until n events have fired
// — the data-pump shape of a busy internet, where throughput is bounded by
// pop cost rather than insert cost.
func SchedulerDense(s *Scheduler, n int) {
	rng := uint64(99999)
	remaining := n
	var pump func()
	pump = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		rng = benchLCG(rng)
		s.Post(1+Time(rng&255), pump)
	}
	for i := 0; i < 64 && remaining > 0; i++ {
		s.Post(Time(i), pump)
	}
	for remaining > 0 && s.Step() {
	}
}
