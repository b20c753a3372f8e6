package experiments

import (
	"reflect"
	"time"

	"pim/internal/netsim"
)

// The scaling benchmark wraps the §1.2 overhead sweeps (internet sizes,
// group counts, sender sets) in wall-clock instrumentation so the simulator
// itself can be ledgered: `pimbench run scaling` records wall time,
// events/sec, and peak live timers in BENCH_scale.json. With more than one
// shard requested it adds a sharded pass, whose simulated grid must match
// the sequential one (SameGridsSharded gates the ledger).

// ScalingBenchConfig names the sweeps the benchmark runs. Every sweep varies
// one axis of Base; Sizes is the headline axis (1000-router internets put
// >10^6 concurrent soft-state timers in the scheduler under PIM-DM's
// flood-and-prune).
type ScalingBenchConfig struct {
	Base    SparseConfig
	Sizes   []int // internet sizes for the size sweep
	Groups  []int // group counts for the group sweep
	Senders []int // per-group sender counts for the sender sweep
	Protos  []Protocol
}

// DefaultScalingBench is the ledger workload: internets up to 1000 routers,
// every protocol. The measured phase is shortened from the overhead-study
// default so the 1000-router flood-and-prune cells stay in whole-run minutes.
func DefaultScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Duration = 60 * netsim.Second
	return ScalingBenchConfig{
		Base:    base,
		Sizes:   []int{50, 200, 1000},
		Groups:  []int{1, 4, 16},
		Senders: []int{1, 4, 16},
		Protos:  AllProtocols(),
	}
}

// SmokeScalingBench is the CI-sized workload: small internets, three
// protocols, same code paths.
func SmokeScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Nodes = 30
	base.Duration = 60 * netsim.Second
	return ScalingBenchConfig{
		Base:    base,
		Sizes:   []int{20, 40},
		Groups:  []int{1, 3},
		Senders: []int{1, 3},
		Protos:  []Protocol{PIMSM, CBT, DVMRP},
	}
}

// TenKScalingBench is the 10 000-router headline cell: a single size-sweep
// point on the sparse protocols (flood-and-prune at this scale floods ~10^5
// link crossings per packet and is benchmarked separately at 1000 routers).
// The measured phase is short — the point is that a 10k-router internet
// builds, shards, and sustains throughput, ledgered with the shard count.
func TenKScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Groups = 4
	base.Members = 8
	base.Warmup = 20 * netsim.Second
	base.Duration = 30 * netsim.Second
	return ScalingBenchConfig{
		Base:   base,
		Sizes:  []int{10000},
		Protos: []Protocol{PIMSM, CBT},
	}
}

// ScalingSweep is one timed sweep: the simulated grid plus the host-side
// cost of producing it.
type ScalingSweep struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	// WallMs is host wall-clock time for the whole sweep; Events counts
	// scheduler events processed across all cells, and EventsPerSec is their
	// ratio — the simulator's throughput.
	WallMs       float64 `json:"wall_ms"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakTimers is the largest concurrent live-timer population any cell
	// reached — the queue size the scheduler had to sustain.
	PeakTimers int `json:"peak_timers"`
	// Grid is the simulated outcome, identical across shard and worker
	// counts; it gates the ledger but is not serialized into it.
	Grid []ScalingPoint `json:"-"`
}

// ScalingBenchResult aggregates the configured sweeps.
type ScalingBenchResult struct {
	Sweeps     []ScalingSweep `json:"sweeps"`
	WallMs     float64        `json:"wall_ms"`
	Events     int64          `json:"events"`
	PeakTimers int            `json:"peak_timers"`
	// Shards is the shard count the sweeps executed under (1 =
	// sequential), recorded so ledger entries are self-describing.
	Shards int `json:"shards"`
}

// RunScalingBench runs the size, group, and sender sweeps under wall-clock
// timing, each simulation on cfg.Base.Shards shards.
func RunScalingBench(cfg ScalingBenchConfig) ScalingBenchResult {
	type sweepDef struct {
		name string
		run  func() []ScalingPoint
	}
	defs := []sweepDef{
		{"size", func() []ScalingPoint { return RunSizeScaling(cfg.Base, cfg.Sizes, cfg.Protos) }},
		{"groups", func() []ScalingPoint { return RunGroupScaling(cfg.Base, cfg.Groups, cfg.Protos) }},
		{"senders", func() []ScalingPoint { return RunSenderScaling(cfg.Base, cfg.Senders, cfg.Protos) }},
	}
	axes := [][]int{cfg.Sizes, cfg.Groups, cfg.Senders}
	var res ScalingBenchResult
	res.Shards = max(cfg.Base.Shards, 1)
	for di, d := range defs {
		if len(axes[di]) == 0 {
			continue // axis not configured (e.g. the 10k workload is size-only)
		}
		t0 := time.Now()
		grid := d.run()
		wall := time.Since(t0)
		sw := ScalingSweep{Name: d.name, Grid: grid}
		for _, pt := range grid {
			sw.Cells += len(pt.Results)
			for _, r := range pt.Results {
				sw.Events += r.Events
				if r.PeakTimers > sw.PeakTimers {
					sw.PeakTimers = r.PeakTimers
				}
			}
		}
		sw.WallMs = float64(wall.Microseconds()) / 1000
		if s := wall.Seconds(); s > 0 {
			sw.EventsPerSec = float64(sw.Events) / s
		}
		res.Sweeps = append(res.Sweeps, sw)
		res.WallMs += sw.WallMs
		res.Events += sw.Events
		if sw.PeakTimers > res.PeakTimers {
			res.PeakTimers = sw.PeakTimers
		}
	}
	return res
}

// SameGrids reports whether two benchmark runs produced bit-identical
// simulated results — every sweep's grid equal, wall times ignored. This is
// the determinism gate across worker counts.
func SameGrids(a, b ScalingBenchResult) bool {
	if len(a.Sweeps) != len(b.Sweeps) {
		return false
	}
	for i := range a.Sweeps {
		if a.Sweeps[i].Name != b.Sweeps[i].Name ||
			!reflect.DeepEqual(a.Sweeps[i].Grid, b.Sweeps[i].Grid) {
			return false
		}
	}
	return true
}

// SameGridsSharded is the ledger gate for multi-shard runs: the grids must
// be bit-identical except for PeakTimers, which a sharded run reports as the
// sum of per-shard peaks (and which outbox buffering makes incomparable in
// either direction — see netsim.Network.PeakLiveTimers). Events is NOT
// masked: both paths execute exactly the same event population, so the
// processed counts must agree to the event.
func SameGridsSharded(a, b ScalingBenchResult) bool {
	return SameGrids(maskPeaks(a), maskPeaks(b))
}

// maskPeaks zeroes the per-cell and per-sweep peak-timer readings, leaving
// every simulated outcome and event count intact.
func maskPeaks(r ScalingBenchResult) ScalingBenchResult {
	out := r
	out.Sweeps = make([]ScalingSweep, len(r.Sweeps))
	for i, sw := range r.Sweeps {
		msw := sw
		msw.PeakTimers = 0
		msw.Grid = make([]ScalingPoint, len(sw.Grid))
		for j, pt := range sw.Grid {
			mpt := ScalingPoint{X: pt.X, Results: make([]Result, len(pt.Results))}
			for k, res := range pt.Results {
				res.PeakTimers = 0
				mpt.Results[k] = res
			}
			msw.Grid[j] = mpt
		}
		out.Sweeps[i] = msw
	}
	return out
}
