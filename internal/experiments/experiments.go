// Package experiments contains the end-to-end protocol experiment drivers:
// the Figure 1 three-domain scenarios and the sparse-group overhead
// comparison that quantifies the paper's central claim (§1.2: overhead
// measured as state, control message processing, and data packet processing
// across the entire network). cmd/pimsim, the examples, and bench_test.go
// all call into this package so every reported number comes from one code
// path.
package experiments

import (
	"fmt"
	"math/rand"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/pimdm"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// Protocol selects the multicast routing protocol under test.
type Protocol string

// Supported protocols.
const (
	PIMSM       Protocol = "pim-sm"
	PIMDM       Protocol = "pim-dm"
	DVMRP       Protocol = "dvmrp"
	CBT         Protocol = "cbt"
	MOSPF       Protocol = "mospf"
	PIMSMShared Protocol = "pim-sm-shared" // sparse mode pinned to the RP tree
)

// AllProtocols lists every comparable protocol.
func AllProtocols() []Protocol {
	return []Protocol{PIMSM, PIMSMShared, CBT, DVMRP, PIMDM, MOSPF}
}

// Result is one protocol's overhead ledger from one run.
type Result struct {
	Protocol Protocol
	// State is the total number of multicast routing entries across all
	// routers at the end of the run.
	State int
	// CtrlMessages is the total number of protocol control messages sent.
	CtrlMessages int64
	// CtrlBytes / DataBytes are the link-level byte totals.
	CtrlBytes, DataBytes int64
	// DataPackets counts data packet link crossings (packet processing).
	DataPackets int64
	// LinksTouched is how many backbone links carried at least one data
	// packet — the sparseness measure.
	LinksTouched int
	// MaxLinkData is the largest per-link data packet count (traffic
	// concentration).
	MaxLinkData int64
	// Delivered counts packets received by member hosts; Expected is the
	// count a loss-free protocol would deliver.
	Delivered, Expected int
	// SPFRuns counts Dijkstra executions (MOSPF's processing cost).
	SPFRuns int64
	// Events is the total number of scheduler events processed — the
	// simulator-side measure of protocol activity the scaling benchmark
	// normalizes wall time against (events/sec).
	Events int64
	// PeakTimers is the high-water mark of concurrently armed timers, the
	// soft-state pressure the §2.3 periodic-refresh design puts on a router's
	// timer subsystem.
	PeakTimers int
	// StateBytes is the end-of-run MFIB memory footprint summed across all
	// routers, for the protocols whose state plane is the shared mfib store
	// (PIM-SM, PIM-DM, DVMRP); zero for CBT and MOSPF, whose per-group tree
	// and cache state live elsewhere. This is the byte-level side of the
	// State entry count (DESIGN.md §16).
	StateBytes int64
}

// String renders the result as one table row.
func (r Result) String() string {
	return fmt.Sprintf("%-13s state=%4d ctrl=%6d dataPkts=%7d links=%3d maxLink=%5d delivered=%d/%d",
		r.Protocol, r.State, r.CtrlMessages, r.DataPackets, r.LinksTouched, r.MaxLinkData, r.Delivered, r.Expected)
}

// SparseConfig parameterizes the sparse-group overhead comparison.
type SparseConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int // receivers per group
	Senders int // senders per group (distinct from receivers)
	Seed    int64
	// Warmup lets trees form before measurement; Duration is the measured
	// phase; senders emit one packet per PacketInterval.
	Warmup         netsim.Time
	Duration       netsim.Time
	PacketInterval netsim.Time
	// PruneLifetime for the dense-mode protocols (short values expose the
	// periodic-rebroadcast cost).
	PruneLifetime netsim.Time
	// Workers bounds the worker pool used when several protocol runs (or
	// sweep points) execute for this config: 0 = GOMAXPROCS, 1 = sequential.
	// Each run is an isolated simulation self-seeded from Seed, so results
	// are identical for every value.
	Workers int
	// Shards is the partition count each simulation executes under (0 or
	// 1 = sequential). Results are identical for every value except
	// Result.PeakTimers, which a sharded run sums over its shards.
	Shards int
}

// DefaultSparse returns a laptop-scale default comparable to the paper's
// sparse wide-area setting.
func DefaultSparse() SparseConfig {
	return SparseConfig{
		Nodes: 50, Degree: 4, Groups: 5, Members: 3, Senders: 1,
		Seed: 42, Warmup: 30 * netsim.Second, Duration: 300 * netsim.Second,
		PacketInterval: 5 * netsim.Second, PruneLifetime: 60 * netsim.Second,
	}
}

// workload assigns member and sender routers per group deterministically.
type workload struct {
	groups  []addr.IP
	members [][]int // per group, router indexes of receivers
	senders [][]int // per group, router indexes of senders
}

func buildWorkload(cfg SparseConfig, rng *rand.Rand) workload {
	w := workload{}
	for gi := 0; gi < cfg.Groups; gi++ {
		w.groups = append(w.groups, addr.GroupForIndex(gi))
		picked := topology.PickDistinct(cfg.Nodes, cfg.Members+cfg.Senders, rng)
		w.members = append(w.members, picked[:cfg.Members])
		w.senders = append(w.senders, picked[cfg.Members:])
	}
	return w
}

// RunSparse builds one random internet, deploys the protocol, runs the
// join/send workload, and returns the overhead ledger.
func RunSparse(cfg SparseConfig, proto Protocol) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	return runSparseImpl(g, cfg, proto, rng)
}

func runSparseImpl(g *topology.Graph, cfg SparseConfig, proto Protocol, rng *rand.Rand) Result {
	w := buildWorkload(cfg, rng)

	sim := scenario.Build(g)
	// Hosts: one receiver host per member router, one sender host per
	// sender router.
	recvHosts := make([][]*igmp.Host, cfg.Groups)
	sendHosts := make([][]*igmp.Host, cfg.Groups)
	hostAt := map[int]*igmp.Host{}
	ensureHost := func(r int) *igmp.Host {
		if h := hostAt[r]; h != nil {
			return h
		}
		h := sim.AddHost(r)
		hostAt[r] = h
		return h
	}
	for gi := range w.groups {
		for _, m := range w.members[gi] {
			recvHosts[gi] = append(recvHosts[gi], ensureHost(m))
		}
		for _, s := range w.senders[gi] {
			sendHosts[gi] = append(sendHosts[gi], ensureHost(s))
		}
	}
	// Shard the simulation when a multi-shard run was requested
	// (cfg.Shards). MOSPF stays sequential: its routers flood through a
	// shared in-memory Domain that cannot be split across shards.
	if proto != MOSPF {
		sim.AutoShardN(cfg.Shards)
	}
	sim.FinishUnicast(scenario.UseOracle)

	// RP / core placement: the first member's router (the paper's §4
	// guidance: "most efficient and convenient for the RP to be the
	// directly-connected PIM-speaking router of one of the members").
	rpMap := map[addr.IP][]addr.IP{}
	coreMap := map[addr.IP]addr.IP{}
	for gi, grp := range w.groups {
		anchor := sim.RouterAddr(w.members[gi][0])
		rpMap[grp] = []addr.IP{anchor}
		coreMap[grp] = anchor
	}

	state, stateBytes, ctrl, spf := deployProtocol(sim, proto, rpMap, coreMap, cfg.PruneLifetime)

	// Warm up: hellos, queries, membership.
	sim.Run(2 * netsim.Second)
	for gi, grp := range w.groups {
		for _, h := range recvHosts[gi] {
			h.Join(grp)
		}
	}
	sim.Run(cfg.Warmup)

	// Measured phase: periodic senders. Each pump reschedules itself on its
	// host's own (possibly shard-local) scheduler, so sharded runs keep all
	// send events inside the owning shard.
	sim.Net.Stats.Reset()
	ctrlBase := ctrl()
	for gi, grp := range w.groups {
		gi, grp := gi, grp
		for _, h := range sendHosts[gi] {
			h := h
			sched := h.Node.Sched()
			var pump func()
			pump = func() {
				scenario.SendData(h, grp, 128)
				sched.After(cfg.PacketInterval, pump)
			}
			sched.After(0, pump)
		}
	}
	sim.Run(cfg.Duration)

	res := Result{
		Protocol:     proto,
		State:        state(),
		CtrlMessages: ctrl() - ctrlBase,
		CtrlBytes:    sim.Net.Stats.Totals.ControlBytes,
		DataBytes:    sim.Net.Stats.Totals.DataBytes,
		DataPackets:  sim.Net.Stats.Totals.DataPackets,
		Expected:     0,
		Events:       sim.Net.EventsProcessed(),
		PeakTimers:   sim.Net.PeakLiveTimers(),
	}
	for _, l := range sim.EdgeLinks {
		if n := sim.Net.Stats.PerLink[l.ID].DataPackets; n > res.MaxLinkData {
			res.MaxLinkData = n
		}
	}
	if spf != nil {
		res.SPFRuns = spf()
	}
	if stateBytes != nil {
		res.StateBytes = stateBytes()
	}
	// Links touched: backbone links only (host LANs always carry data).
	for _, l := range sim.EdgeLinks {
		if sim.Net.Stats.PerLink[l.ID].DataPackets > 0 {
			res.LinksTouched++
		}
	}
	for gi := range w.groups {
		for _, h := range recvHosts[gi] {
			res.Delivered += h.Received[w.groups[gi]]
		}
	}
	// Expected = packets sent per group × receivers per group, summed.
	perSender := 0
	if cfg.PacketInterval > 0 {
		perSender = int(cfg.Duration/cfg.PacketInterval) + 1
	}
	res.Expected = cfg.Groups * cfg.Senders * perSender * cfg.Members
	return res
}

// deployProtocol installs one protocol's routers on a built simulation and
// returns accessors for total forwarding state, its byte footprint (nil for
// the protocols whose state plane is not the shared mfib store), cumulative
// control-message count, and SPF executions (nil for the non-link-state
// protocols). Shared between the overhead sweeps and the control-plane churn
// benchmark so every ledger deploys through one code path.
func deployProtocol(sim *scenario.Sim, proto Protocol, rpMap map[addr.IP][]addr.IP,
	coreMap map[addr.IP]addr.IP, pruneLifetime netsim.Time, extra ...scenario.DeployOption) (state func() int, stateBytes func() int64, ctrl, spf func() int64) {
	switch proto {
	case PIMSM, PIMSMShared:
		pcfg := core.Config{RPMapping: rpMap}
		if proto == PIMSMShared {
			pcfg.SPTPolicy = core.SwitchNever
		}
		dep := sim.Deploy(scenario.SparseMode, append([]scenario.DeployOption{scenario.WithCoreConfig(pcfg)}, extra...)...).(*scenario.PIMDeployment)
		state = dep.TotalState
		stateBytes = dep.StateBytes
		ctrl = func() int64 { return sumCtrl(depMetrics(dep)) }
	case DVMRP:
		dep := sim.Deploy(scenario.DVMRPMode, append([]scenario.DeployOption{scenario.WithDVMRPConfig(dvmrp.Config{PruneLifetime: pruneLifetime})}, extra...)...).(*scenario.DVMRPDeployment)
		state = dep.TotalState
		stateBytes = dep.StateBytes
		ctrl = func() int64 {
			var t int64
			for _, r := range dep.Routers {
				t += r.Metrics.Get(metrics.CtrlPrune) + r.Metrics.Get(metrics.CtrlGraft)
			}
			return t
		}
	case PIMDM:
		dep := sim.Deploy(scenario.DenseMode, append([]scenario.DeployOption{scenario.WithDenseConfig(pimdm.Config{PruneHoldTime: pruneLifetime})}, extra...)...).(*scenario.PIMDMDeployment)
		state = dep.TotalState
		stateBytes = dep.StateBytes
		ctrl = func() int64 {
			var t int64
			for _, r := range dep.Routers {
				t += r.Metrics.Get(metrics.CtrlPrune) + r.Metrics.Get(metrics.CtrlGraft) +
					r.Metrics.Get(metrics.CtrlJoinPrune) + r.Metrics.Get(metrics.CtrlAssert)
			}
			return t
		}
	case CBT:
		dep := sim.Deploy(scenario.CBTMode, append([]scenario.DeployOption{scenario.WithCBTConfig(cbt.Config{CoreMapping: coreMap})}, extra...)...).(*scenario.CBTDeployment)
		state = dep.TotalState
		ctrl = func() int64 {
			var t int64
			for _, r := range dep.Routers {
				t += r.Metrics.Get(metrics.CtrlCBTJoin) + r.Metrics.Get(metrics.CtrlCBTAck) +
					r.Metrics.Get(metrics.CtrlCBTEcho)
			}
			return t
		}
	case MOSPF:
		dep := sim.Deploy(scenario.MOSPFMode, extra...).(*scenario.MOSPFDeployment)
		state = dep.TotalState
		ctrl = func() int64 {
			var t int64
			for _, r := range dep.Routers {
				t += r.Metrics.Get(metrics.CtrlLSA)
			}
			return t
		}
		spf = func() int64 {
			var t int64
			for _, r := range dep.Routers {
				t += r.Metrics.Get(metrics.SPFRuns)
			}
			return t
		}
	default:
		panic("experiments: unknown protocol " + string(proto))
	}
	return state, stateBytes, ctrl, spf
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func depMetrics(dep *scenario.PIMDeployment) []*metrics.Counters {
	out := make([]*metrics.Counters, len(dep.Routers))
	for i, r := range dep.Routers {
		out[i] = r.Metrics
	}
	return out
}

func sumCtrl(ms []*metrics.Counters) int64 {
	var t int64
	for _, m := range ms {
		t += m.Get(metrics.CtrlJoinPrune) + m.Get(metrics.CtrlRegister) + m.Get(metrics.CtrlRPReach)
	}
	return t
}

// CompareSparse runs every protocol over the same topology/workload seed.
// Runs are independent simulations (RunSparse re-seeds from cfg.Seed), so
// they fan across cfg.Workers workers; the slice is ordered by protos
// regardless of completion order.
func CompareSparse(cfg SparseConfig, protos []Protocol) []Result {
	out := make([]Result, len(protos))
	parallel.For(len(protos), cfg.Workers, func(i int) {
		out[i] = RunSparse(cfg, protos[i])
	})
	return out
}

// RunSparseOn is RunSparse over a caller-supplied topology (e.g. parsed
// from a cmd/topogen edge list) instead of a freshly generated random one.
func RunSparseOn(g *topology.Graph, cfg SparseConfig, proto Protocol) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.Nodes = g.N()
	return runSparseImpl(g, cfg, proto, rng)
}
