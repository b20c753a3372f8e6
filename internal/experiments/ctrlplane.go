package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// The control-plane churn benchmark isolates the paper's §2.3 steady state:
// an internet where every tree is already built and the only traffic is
// periodic soft-state refresh — PIM queries and join/prune refreshes, RP
// beacons, DVMRP probes, CBT echoes, IGMP query/report cycles. Dense-mode
// member advertisements are not among them: only a border router seeds
// them, and this benchmark deploys none. This is the workload the
// zero-allocation send path (packet.Scratch encoders + pooled netsim
// frames) targets: with a few heap objects per refresh message and link
// crossing, at 1000 routers the garbage collector becomes a visible
// fraction of wall time.
//
// Each protocol runs once in-process and reports its simulated observables
// (forwarding state, control-message counts, scheduler events) next to the
// host-side cost (wall time, mallocs/msg, GC cycles and pause).

// CtrlPlaneConfig parameterizes the steady-state churn benchmark.
type CtrlPlaneConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int
	Seed    int64
	// Warmup builds the trees (joins, hellos, unicast settle); Duration is
	// the measured pure-refresh phase. No data packets flow at any point:
	// the workload is the control plane alone.
	Warmup   netsim.Time
	Duration netsim.Time
	Protos   []Protocol
}

// DefaultCtrlPlane is the ledger workload: a 1000-router internet holding
// steady-state refresh for ten simulated minutes across every protocol.
func DefaultCtrlPlane() CtrlPlaneConfig {
	return CtrlPlaneConfig{
		Nodes: 1000, Degree: 4, Groups: 8, Members: 5, Seed: 42,
		Warmup: 60 * netsim.Second, Duration: 600 * netsim.Second,
		Protos: AllProtocols(),
	}
}

// SmokeCtrlPlane is the CI-sized workload: a small internet, three
// protocols, same code paths; nothing is recorded.
func SmokeCtrlPlane() CtrlPlaneConfig {
	return CtrlPlaneConfig{
		Nodes: 40, Degree: 4, Groups: 3, Members: 3, Seed: 42,
		Warmup: 30 * netsim.Second, Duration: 120 * netsim.Second,
		Protos: []Protocol{PIMSM, DVMRP, CBT},
	}
}

// CtrlPlaneCell is one protocol's measurement.
type CtrlPlaneCell struct {
	Protocol Protocol `json:"protocol"`

	// Simulated observables, deterministic for a given config.
	CtrlMessages int64 `json:"ctrl_messages"`
	State        int   `json:"state"`
	Events       int64 `json:"events"`

	// Host-side cost of the measured phase.
	WallMs     float64 `json:"wall_ms"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// Mallocs is the runtime.MemStats.Mallocs delta across the measured
	// phase; AllocsPerMsg normalizes it per control message sent.
	Mallocs      uint64  `json:"mallocs"`
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	// GCCycles and GCPauseMs are the NumGC / PauseTotalNs deltas; HeapMB is
	// live heap at the end of the measured phase.
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`
	HeapMB    float64 `json:"heap_mb"`
}

// CtrlPlaneResult aggregates the per-protocol cells.
type CtrlPlaneResult struct {
	Cells  []CtrlPlaneCell `json:"cells"`
	WallMs float64         `json:"wall_ms"`
}

// RunCtrlPlane runs every configured protocol once. Cells run sequentially
// in-process so the runtime.MemStats deltas attribute cleanly to one
// simulation at a time.
func RunCtrlPlane(cfg CtrlPlaneConfig) CtrlPlaneResult {
	var res CtrlPlaneResult
	t0 := time.Now()
	for _, proto := range cfg.Protos {
		res.Cells = append(res.Cells, runCtrlPlaneCell(cfg, proto))
	}
	res.WallMs = float64(time.Since(t0).Microseconds()) / 1000
	return res
}

// runCtrlPlaneCell builds one internet, joins the members, lets the trees
// form, then measures a pure-refresh window.
func runCtrlPlaneCell(cfg CtrlPlaneConfig, proto Protocol) CtrlPlaneCell {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	groups := make([]addr.IP, cfg.Groups)
	memberIdx := make([][]int, cfg.Groups)
	for gi := range groups {
		groups[gi] = addr.GroupForIndex(gi)
		memberIdx[gi] = topology.PickDistinct(cfg.Nodes, cfg.Members, rng)
	}

	sim := scenario.Build(g)
	recvHosts := make([][]*igmp.Host, cfg.Groups)
	hostAt := map[int]*igmp.Host{}
	for gi := range groups {
		for _, m := range memberIdx[gi] {
			h := hostAt[m]
			if h == nil {
				h = sim.AddHost(m)
				hostAt[m] = h
			}
			recvHosts[gi] = append(recvHosts[gi], h)
		}
	}
	sim.FinishUnicast(scenario.UseOracle)

	rpMap := map[addr.IP][]addr.IP{}
	coreMap := map[addr.IP]addr.IP{}
	for gi, grp := range groups {
		anchor := sim.RouterAddr(memberIdx[gi][0])
		rpMap[grp] = []addr.IP{anchor}
		coreMap[grp] = anchor
	}
	state, _, _, _ := deployProtocol(sim, proto, rpMap, coreMap, 120*netsim.Second)

	// Warm up: hellos, queries, joins, tree formation.
	sim.Run(2 * netsim.Second)
	for gi, grp := range groups {
		for _, h := range recvHosts[gi] {
			h.Join(grp)
		}
	}
	sim.Run(cfg.Warmup)

	// Measured phase: nothing but periodic refresh.
	sim.Net.Stats.Reset()
	eventsBase := sim.Net.EventsProcessed()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()
	sim.Run(cfg.Duration)
	wall := time.Since(w0)
	runtime.ReadMemStats(&m1)

	cell := CtrlPlaneCell{
		Protocol:     proto,
		CtrlMessages: sim.Net.Stats.Totals.ControlPackets,
		State:        state(),
		Events:       sim.Net.EventsProcessed() - eventsBase,
		WallMs:       float64(wall.Microseconds()) / 1000,
		Mallocs:      m1.Mallocs - m0.Mallocs,
		GCCycles:     m1.NumGC - m0.NumGC,
		GCPauseMs:    float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		HeapMB:       float64(m1.HeapAlloc) / (1 << 20),
	}
	if s := wall.Seconds(); s > 0 {
		cell.MsgsPerSec = float64(cell.CtrlMessages) / s
	}
	if cell.CtrlMessages > 0 {
		cell.AllocsPerMsg = float64(cell.Mallocs) / float64(cell.CtrlMessages)
	}
	return cell
}
