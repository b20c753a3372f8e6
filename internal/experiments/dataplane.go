package experiments

import (
	"time"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/pimdm"
	"pim/internal/scenario"
	"pim/internal/topology"
	"pim/internal/unicast"
)

// The data-plane benchmark drives steady-state forwarding down an N-hop
// chain — the workload where the per-packet path (trie LPM behind the
// generation-stamped RPF cache for RPF checks, compiled MFIB fan-out for
// outgoing-interface lists) dominates — and times the measured window.
//
// Three phases cover the distinct per-packet code paths:
//
//   - shared: PIM-SM pinned to the RP tree (§3.2 shared-tree forwarding,
//     negative-cache subtraction on every hop);
//   - spt: PIM-SM with immediate SPT switching (§3.3), exercising the
//     (S,G)∪shared union rule of §3.5;
//   - dense: PIM-DM broadcast-and-prune steady state, where every hop
//     RPF-checks every packet against the unicast table.

// DataplaneConfig parameterizes the N-hop forwarding benchmark.
type DataplaneConfig struct {
	// Hops is the chain length (routers). The source hangs off the
	// highest-index router, so packets traverse the whole chain.
	Hops int
	// Packets sent in the measured phase, PacketGap apart.
	Packets   int
	PacketGap netsim.Time
	// Payload is the data packet payload size in bytes.
	Payload int
	// FillerRoutes pads every router's unicast table with this many inert
	// /24s, modelling the backbone-scale tables the paper's wide-area
	// setting implies. They sit below the scenario address plan so per-packet
	// RPF lookups must consider them; the multicast traffic never targets
	// them, so forwarding behaviour is unchanged.
	FillerRoutes int
}

// DefaultDataplane returns the ledger workload: long enough for steady
// state to dominate, short enough for bench-smoke. The chain length stays
// under packet.DefaultTTL (64) so measured packets reach the far receiver.
func DefaultDataplane() DataplaneConfig {
	return DataplaneConfig{
		Hops: 56, Packets: 2000, PacketGap: 10 * netsim.Millisecond,
		Payload: 16, FillerRoutes: 1024,
	}
}

// SmokeDataplane returns the CI-sized workload: a short chain and a few
// hundred packets — enough to exercise every phase without the ledger
// run's wall-clock cost.
func SmokeDataplane() DataplaneConfig {
	return DataplaneConfig{
		Hops: 16, Packets: 200, PacketGap: 10 * netsim.Millisecond,
		Payload: 16, FillerRoutes: 128,
	}
}

// DataplanePhase is one protocol phase's measured window.
type DataplanePhase struct {
	Name      string  `json:"name"`
	WallMs    float64 `json:"wall_ms"`
	Delivered int     `json:"delivered"`
	// Crossings counts data-packet link crossings (per-hop forwarding work
	// actually performed).
	Crossings int64 `json:"data_crossings"`
	// Forwarded sums the routers' data.forwarded counters over the measured
	// window — the router-side view of the same work, reset per pass so it
	// spans exactly what Crossings spans.
	Forwarded int64 `json:"data_forwarded"`
}

// DataplaneResult is the full benchmark outcome. The per-phase numbers
// decompose the total: the RPF-per-hop dense phase leans on the trie and
// the RPF cache, while established shared/shortest-path trees forward from
// precomputed state by design (§3.5) and mostly exercise the compiled
// fan-out.
type DataplaneResult struct {
	Hops    int              `json:"hops"`
	Packets int              `json:"packets"`
	Fillers int              `json:"filler_routes"`
	Phases  []DataplanePhase `json:"phases"`
	// WallMs is the total measured wall time across all phases.
	WallMs float64 `json:"wall_ms"`
}

// dataplanePhases names the benchmark phases in execution order.
var dataplanePhases = []string{"shared", "spt", "dense"}

// RunDataplane executes every phase once.
func RunDataplane(cfg DataplaneConfig) DataplaneResult {
	res := DataplaneResult{Hops: cfg.Hops, Packets: cfg.Packets, Fillers: cfg.FillerRoutes}
	for _, name := range dataplanePhases {
		p := runDataplaneOnce(cfg, name)
		res.Phases = append(res.Phases, p)
		res.WallMs += p.WallMs
	}
	return res
}

// runDataplaneOnce builds a fresh chain simulation, establishes the phase's
// distribution tree, then times the measured send window. Setup and warmup
// are excluded from the wall clock: the benchmark isolates steady-state
// per-packet cost.
func runDataplaneOnce(cfg DataplaneConfig, phase string) DataplanePhase {
	h := cfg.Hops
	g := topology.New(h)
	for i := 0; i < h-1; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := scenario.Build(g)
	// Source behind the last router; receivers behind the first and middle
	// routers, so packets traverse the full chain and fork once.
	src := sim.AddHost(h - 1)
	receivers := []*igmp.Host{sim.AddHost(0), sim.AddHost(h / 2)}
	sim.FinishUnicast(scenario.UseOracle)
	installFillerRoutes(sim, cfg.FillerRoutes)

	group := addr.GroupForIndex(0)
	var routerCounters []*metrics.Counters
	switch phase {
	case "shared":
		d := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
			RPMapping: map[addr.IP][]addr.IP{group: {sim.RouterAddr(0)}},
			SPTPolicy: core.SwitchNever,
		})).(*scenario.PIMDeployment)
		for _, r := range d.Routers {
			routerCounters = append(routerCounters, r.Metrics)
		}
	case "spt":
		d := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
			RPMapping: map[addr.IP][]addr.IP{group: {sim.RouterAddr(0)}},
		})).(*scenario.PIMDeployment)
		for _, r := range d.Routers {
			routerCounters = append(routerCounters, r.Metrics)
		}
	case "dense":
		d := sim.Deploy(scenario.DenseMode, scenario.WithDenseConfig(pimdm.Config{})).(*scenario.PIMDMDeployment)
		for _, r := range d.Routers {
			routerCounters = append(routerCounters, r.Metrics)
		}
	default:
		panic("experiments: unknown dataplane phase " + phase)
	}

	sim.Run(2 * netsim.Second)
	for _, r := range receivers {
		r.Join(group)
	}
	sim.Run(30 * netsim.Second)
	// Prime the trees (registers, SPT switches, dense-mode prunes) so the
	// measured window is pure steady state.
	for i := 0; i < 5; i++ {
		scenario.SendData(src, group, cfg.Payload)
		sim.Run(netsim.Second)
	}
	sim.Run(10 * netsim.Second)

	run := DataplanePhase{Name: phase}
	// Baseline the per-host counters so Delivered covers only the measured
	// window, not the priming packets.
	primed := make([]int, len(receivers))
	for hi, r := range receivers {
		primed[hi] = r.Received[group]
	}
	// Reset both halves of the overhead ledger together: link stats and the
	// routers' counters must cover exactly the measured window, or the
	// router-side numbers silently include warmup and priming traffic.
	sim.Net.Stats.Reset()
	for _, c := range routerCounters {
		c.Reset()
	}
	for i := 0; i < cfg.Packets; i++ {
		sim.Net.Sched.After(netsim.Time(i)*cfg.PacketGap, func() {
			scenario.SendData(src, group, cfg.Payload)
		})
	}
	t0 := time.Now()
	sim.Run(netsim.Time(cfg.Packets)*cfg.PacketGap + 10*netsim.Second)
	run.WallMs = float64(time.Since(t0).Microseconds()) / 1000

	for hi, r := range receivers {
		run.Delivered += r.Received[group] - primed[hi]
	}
	run.Crossings = sim.Net.Stats.Totals.DataPackets
	for _, c := range routerCounters {
		run.Forwarded += c.Get(metrics.DataForwarded)
	}
	return run
}

// installFillerRoutes pads every router's table with n inert /24s under
// 10.(1..99).x — below the scenario's 10.100 host LANs and 10.200 backbone
// links, so they are covered by every real lookup's scan range but never
// selected. The oracle only recomputes tables on link changes, which this
// benchmark has none of, so the padding persists through the run.
func installFillerRoutes(sim *scenario.Sim, n int) {
	if n <= 0 {
		return
	}
	for i := range sim.Routers {
		tb, ok := sim.UnicastFor(i).(*unicast.Table)
		if !ok {
			return
		}
		var via *netsim.Iface
		for _, ifc := range sim.Routers[i].Ifaces {
			if ifc.Up() && ifc.Addr != 0 {
				via = ifc
				break
			}
		}
		for j := 0; j < n; j++ {
			p := addr.Prefix{Addr: addr.V4(10, byte(1+j/200), byte(j%200), 0), Len: 24}
			tb.Set(p, unicast.Route{Iface: via, Metric: 1})
		}
		tb.NotifyChanged()
	}
}
