package experiments

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/pimdm"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// The recovery experiment measures the paper's robustness claim (§2, §3.8)
// head on: all protocol state is timer-refreshed soft state, so the network
// should converge back to correct delivery after lost control messages, link
// failures, and router crashes — with no reliability machinery beyond
// periodic refresh (plus the few acknowledged messages: dense-mode grafts
// and CBT's join handshake).
//
// The harness runs every protocol through a fixed fault matrix on a small
// diamond topology with a bypass path, and reports for each cell:
//
//   - recovery time: the gap between the fault (or the membership change it
//     interferes with) and the first packet delivered past it, detected by a
//     telemetry.ConvergenceProbe on the deployment's event bus;
//   - control messages spent converging (protocol control sends in that
//     window, tallied from the telemetry lanes);
//   - residual state: entries still installed at the end of the run beyond
//     the pre-fault baseline — stale state a soft-state protocol must shed;
//   - tree quiet time: how long the multicast forwarding state had been
//     mutation-free when the run ended (the probe's stabilization signal).
//
// Fault injection is deterministic (internal/faults), so the matrix is
// reproducible across any Workers setting and any shard count. With Checked
// set, every cell additionally runs under the online §3.8 invariant checker
// and surfaces any violations; the pimbench recording runs checked and
// refuses to record a matrix with any.

// Recovery fault kinds.
const (
	FaultLoss0  = "loss0"  // control cell: membership change, no loss
	FaultLoss5  = "loss5"  // 5% control-plane loss network-wide
	FaultLoss20 = "loss20" // 20% control-plane loss network-wide
	FaultFlap   = "flap"   // the tree's transit link flaps down/up
	FaultCrash  = "crash"  // mid-tree router fail-stops, later restarts
)

// RecoveryFaults lists the fault matrix columns in report order.
func RecoveryFaults() []string {
	return []string{FaultLoss0, FaultLoss5, FaultLoss20, FaultFlap, FaultCrash}
}

// RecoveryProtocols lists the matrix rows: every protocol, sparse and dense.
func RecoveryProtocols() []Protocol {
	return []Protocol{PIMSM, PIMDM, DVMRP, CBT, MOSPF}
}

// RecoveryConfig parameterizes the fault-recovery matrix.
type RecoveryConfig struct {
	Seed int64
	// Senders emit one packet per PacketInterval for the whole run.
	PacketInterval netsim.Time
	// FaultAt is when the fault hits steady state; RestartAt revives the
	// crashed router; JoinAt is when the late receiver joins under loss;
	// End bounds the run.
	FaultAt   netsim.Time
	RestartAt netsim.Time
	JoinAt    netsim.Time
	End       netsim.Time
	// Workers bounds the pool running matrix cells; every cell is an
	// isolated simulation seeded from Seed and the cell index, so results
	// are identical for every value.
	Workers int
	// Checked attaches the online invariant checker to every cell; any
	// §3.8 contract violation surfaces on the cell.
	Checked bool
	// Shards is the partition count each cell executes under (0 or 1 =
	// sequential); results are identical for every value.
	Shards int
}

// DefaultRecovery returns the ledger workload.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Seed:           42,
		PacketInterval: 2 * netsim.Second,
		FaultAt:        60 * netsim.Second,
		RestartAt:      90 * netsim.Second,
		JoinAt:         70 * netsim.Second,
		End:            240 * netsim.Second,
	}
}

// SmokeRecovery returns the CI-sized workload: the same fault matrix
// compressed to two simulated minutes — long enough for every protocol to
// converge past each fault, short enough for bench-smoke.
func SmokeRecovery() RecoveryConfig {
	return RecoveryConfig{
		Seed:           42,
		PacketInterval: 2 * netsim.Second,
		FaultAt:        30 * netsim.Second,
		RestartAt:      45 * netsim.Second,
		JoinAt:         35 * netsim.Second,
		End:            120 * netsim.Second,
	}
}

// RecoveryCell is one (protocol, fault) outcome.
type RecoveryCell struct {
	Protocol Protocol `json:"protocol"`
	Fault    string   `json:"fault"`
	// Recovered reports whether delivery resumed before End; RecoverySec is
	// the simulated seconds from the recovery window's start (the fault, or
	// the late join it interferes with) to the first delivery past it.
	Recovered   bool    `json:"recovered"`
	RecoverySec float64 `json:"recovery_sec"`
	// CtrlMessages counts protocol control-message sends (join/prune,
	// graft, prune, register, LSA flood) in the recovery window.
	CtrlMessages int64 `json:"ctrl_messages"`
	// ResidualState is TotalState(End) − TotalState(just before the fault):
	// state beyond the pre-fault baseline still installed at the end.
	ResidualState int `json:"residual_state"`
	// Delivered counts member-host deliveries over the whole run.
	Delivered int `json:"delivered"`
	// TreeQuietSec is how long the forwarding state had gone without a
	// mutation (entry create/expire, iif change) when the run ended — the
	// convergence probe's tree-stabilization measure.
	TreeQuietSec float64 `json:"tree_quiet_sec"`
	// Violations lists online invariant-checker findings (Checked runs
	// only; empty means the cell upheld every §3.8 contract).
	Violations []string `json:"violations,omitempty"`
}

// RecoveryResult is the full matrix.
type RecoveryResult struct {
	Cells []RecoveryCell `json:"cells"`
	// AllRecovered reports whether every cell saw delivery resume.
	AllRecovered bool `json:"all_recovered"`
}

// DeliveryEvent is one packet arrival at a member site. Sent carries the
// origination timestamp stamped into the payload, so the tuple pins source,
// path delay, and ordering.
type DeliveryEvent struct {
	At   netsim.Time
	Host int
	Src  addr.IP
	Sent netsim.Time
}

// recoveryRun is one executed cell.
type recoveryRun struct {
	trace      []DeliveryEvent
	recovery   netsim.Time // -1 when delivery never resumed
	ctrl       int64
	residual   int
	delivered  int
	treeQuiet  netsim.Time
	violations []string
}

// RunRecovery executes the full protocol × fault matrix. The cells are
// isolated simulations and fan across cfg.Workers.
func RunRecovery(cfg RecoveryConfig) RecoveryResult {
	protos := RecoveryProtocols()
	kinds := RecoveryFaults()
	n := len(protos) * len(kinds)
	res := RecoveryResult{Cells: make([]RecoveryCell, n), AllRecovered: true}
	parallel.For(n, cfg.Workers, func(i int) {
		run := runRecoveryOnce(cfg, protos[i/len(kinds)], kinds[i%len(kinds)],
			parallel.DeriveSeed(cfg.Seed, int64(i)), nil)
		c := RecoveryCell{
			Protocol:      protos[i/len(kinds)],
			Fault:         kinds[i%len(kinds)],
			Recovered:     run.recovery >= 0,
			CtrlMessages:  run.ctrl,
			ResidualState: run.residual,
			Delivered:     run.delivered,
			TreeQuietSec:  float64(run.treeQuiet) / float64(netsim.Second),
			Violations:    run.violations,
		}
		if c.Recovered {
			c.RecoverySec = float64(run.recovery) / float64(netsim.Second)
		}
		res.Cells[i] = c
	})
	for _, c := range res.Cells {
		if !c.Recovered {
			res.AllRecovered = false
		}
	}
	return res
}

// recoveryTimings shrinks the soft-state refresh clocks so recovery happens
// within a four-minute run: join/prune and LSA refresh at 20 s, neighbor
// discovery and keepalives at 10 s, prune state at 60 s.
const (
	recoveryRefresh   = 20 * netsim.Second
	recoveryHello     = 10 * netsim.Second
	recoveryPruneHold = 60 * netsim.Second
)

// Receiver sites by attached-router index, the key Deliver telemetry events
// carry: A behind r3 (joins early), B behind r4 (joins late under loss).
const (
	recvARouter = 3
	recvBRouter = 4
)

// deployRecovery starts proto on sim through the Deploy façade with the
// shrunk recovery clocks. Group state anchors (RP, core) sit at router
// `anchor`; IGMP is shrunk the same way via WithIGMPTimers, and MOSPF gets
// periodic LSA re-origination (event-driven LSAs alone cannot survive a
// crash — the restarted router missed them). Extra options (telemetry bus,
// invariant checker) are appended by the caller.
func deployRecovery(sim *scenario.Sim, proto Protocol, group addr.IP, anchor int, extra ...scenario.DeployOption) scenario.Deployment {
	opts := append([]scenario.DeployOption{
		scenario.WithIGMPTimers(recoveryHello, 3*recoveryHello),
	}, extra...)
	switch proto {
	case PIMSM, PIMSMShared:
		pcfg := core.Config{
			RPMapping:         map[addr.IP][]addr.IP{group: {sim.RouterAddr(anchor)}},
			JoinPruneInterval: recoveryRefresh,
			QueryInterval:     recoveryHello,
			RPReachInterval:   recoveryRefresh,
		}
		if proto == PIMSMShared {
			pcfg.SPTPolicy = core.SwitchNever
		}
		return sim.Deploy(scenario.SparseMode, append(opts, scenario.WithCoreConfig(pcfg))...)
	case PIMDM:
		return sim.Deploy(scenario.DenseMode, append(opts, scenario.WithDenseConfig(pimdm.Config{
			PruneHoldTime: recoveryPruneHold,
			QueryInterval: recoveryHello,
		}))...)
	case DVMRP:
		return sim.Deploy(scenario.DVMRPMode, append(opts, scenario.WithDVMRPConfig(dvmrp.Config{
			PruneLifetime: recoveryPruneHold,
			ProbeInterval: recoveryHello,
		}))...)
	case CBT:
		return sim.Deploy(scenario.CBTMode, append(opts, scenario.WithCBTConfig(cbt.Config{
			CoreMapping:  map[addr.IP]addr.IP{group: sim.RouterAddr(anchor)},
			EchoInterval: recoveryHello,
		}))...)
	case MOSPF:
		return sim.Deploy(scenario.MOSPFMode, append(opts, scenario.WithMOSPFRefresh(recoveryRefresh))...)
	default:
		panic("experiments: unknown recovery protocol " + string(proto))
	}
}

// runRecoveryOnce builds the diamond, deploys the protocol, injects the
// fault, and extracts the cell metrics.
//
// Topology (edge weights in delay units):
//
//	r0 --1-- r1 --1-- r2 --1-- r3      source behind r0
//	          \                /       receiver A behind r3 (joins early)
//	           2-- r4 --2-----+        receiver B behind r4 (joins late
//	                                   under loss; early otherwise)
//
// The r1–r4–r3 detour is the bypass: when r2 crashes or the r2–r3 link
// flaps, unicast reroutes over it and the multicast tree must follow from
// soft-state refresh alone. The RP / CBT core is r3, so A's delivery always
// crosses the faulted transit.
// recoverySim builds the diamond with the three hosts attached and the
// oracle unicast substrate finished. Unless the protocol pins itself to the
// sequential path (MOSPF's shared Domain), the sim is partitioned into
// shards before any event is scheduled.
func recoverySim(proto Protocol, shards int) (sim *scenario.Sim, src, recvA, recvB *igmp.Host) {
	g := topology.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1) // EdgeLinks[2]: the flap target
	g.AddEdge(1, 4, 2)
	g.AddEdge(4, 3, 2)
	sim = scenario.Build(g)
	if proto != MOSPF {
		sim.AutoShardN(shards)
	}
	src = sim.AddHost(0)
	recvA = sim.AddHost(recvARouter)
	recvB = sim.AddHost(recvBRouter)
	sim.FinishUnicast(scenario.UseOracle)
	return sim, src, recvA, recvB
}

// RecoveryTelemetry runs one recovery cell with a time-series sampler on the
// deployment's event lanes and returns the sampler for dumping — the
// per-router counter curves the telemetry benchmark writes. The cell runs
// under cfg.Shards, seeded exactly like the matrix's first cell; sharded
// cells additionally carry the per-shard execution counters in the dump.
func RecoveryTelemetry(cfg RecoveryConfig, proto Protocol, kind string, interval netsim.Time) *telemetry.Sampler {
	var smp *telemetry.Sampler
	runRecoveryOnce(cfg, proto, kind, parallel.DeriveSeed(cfg.Seed, 0),
		func(sim *scenario.Sim, lanes []*telemetry.Bus) {
			smp = telemetry.NewShardedSampler(lanes, interval)
			// Expose timer pressure alongside the counter curves: each lane's
			// gauge reads its own shard's live-timer count at each observed
			// event, so the dump shows the soft-state refresh load without
			// perturbing the simulation (and without cross-shard reads).
			for i := range lanes {
				sched := sim.Net.ShardScheduler(i)
				smp.AttachLaneGauge(i, func() int64 { return int64(sched.LiveTimers()) })
			}
			if sim.Net.Sharded() {
				smp.AttachShardLoads(sim.Net.ShardLoads)
			}
		})
	return smp
}

// runRecoveryOnce executes one cell; tap, when non-nil, may subscribe extra
// consumers to the cell's event lanes before the protocol deploys.
func runRecoveryOnce(cfg RecoveryConfig, proto Protocol, kind string, seed int64, tap func(*scenario.Sim, []*telemetry.Bus)) recoveryRun {
	sim, src, recvA, recvB := recoverySim(proto, cfg.Shards)
	group := addr.GroupForIndex(0)

	// Every cell runs with event lanes attached — one bus per shard, so
	// publishing never crosses a shard boundary. A convergence probe rides
	// each lane (a receiver site lives on exactly one shard, so exactly one
	// probe sees its deliveries), and (when Checked) per-lane invariant
	// checkers audit the same streams. All metric extraction happens after
	// the run, from state each lane accumulated race-free.
	nlanes := sim.Net.ShardCount()
	lanes := make([]*telemetry.Bus, nlanes)
	probes := make([]*telemetry.ConvergenceProbe, nlanes)
	for i := range lanes {
		lanes[i] = telemetry.NewBus()
		probes[i] = telemetry.NewConvergenceProbe(lanes[i])
	}
	if tap != nil {
		tap(sim, lanes)
	}
	opts := []scenario.DeployOption{scenario.WithTelemetry(lanes[0])}
	if nlanes > 1 {
		opts = append(opts, scenario.WithShardTelemetry(lanes))
	}
	if cfg.Checked {
		opts = append(opts, scenario.WithInvariantChecker())
	}
	dep := deployRecovery(sim, proto, group, 3, opts...)
	in := faults.New(sim.Net, seed)

	// The recovery window starts at the event whose repair we time: the
	// late join for the loss cells, the fault itself otherwise.
	lossKind := kind == FaultLoss0 || kind == FaultLoss5 || kind == FaultLoss20
	windowStart := cfg.FaultAt
	if lossKind {
		windowStart = cfg.JoinAt
	}

	run := recoveryRun{recovery: -1}
	// Per-lane accumulation: member-site delivery events and control-send
	// instants, merged canonically after the run.
	laneTraces := make([][]DeliveryEvent, nlanes)
	laneCtrl := make([][]netsim.Time, nlanes)
	for i, b := range lanes {
		i := i
		b.Subscribe(func(ev telemetry.Event) {
			switch ev.Kind {
			case telemetry.JoinPruneSend, telemetry.GraftSend, telemetry.PruneSend,
				telemetry.RegisterSend, telemetry.LSAFlood:
				laneCtrl[i] = append(laneCtrl[i], ev.At)
			case telemetry.Deliver:
				if ev.Group != group {
					return
				}
				var hi int
				switch ev.Router {
				case recvARouter:
					hi = 0
				case recvBRouter:
					hi = 1
				default:
					return
				}
				de := DeliveryEvent{At: ev.At, Host: hi, Src: ev.Source}
				if ev.Value >= 0 {
					de.Sent = netsim.Time(ev.Value)
				}
				laneTraces[i] = append(laneTraces[i], de)
			}
		})
	}

	sched := sim.Net.Sched
	// Steady state: A (and, outside the loss cells, B) joins early.
	sched.At(2*netsim.Second, func() { recvA.Join(group) })
	if lossKind {
		sched.At(cfg.JoinAt, func() { recvB.Join(group) })
	} else {
		sched.At(2*netsim.Second, func() { recvB.Join(group) })
	}

	// Constant-rate sender for the whole run.
	for t := netsim.Time(0); t < cfg.End; t += cfg.PacketInterval {
		at := 5*netsim.Second + t
		if at >= cfg.End {
			break
		}
		sched.At(at, func() { scenario.SendData(src, group, 64) })
	}

	// Pre-fault baseline, then the fault itself. (TotalState reads protocol
	// state across every router; as a root-scheduler action it runs at an
	// epoch barrier with all shards quiesced, so the cross-shard read is
	// safe.)
	var stateAtFault int
	sched.At(cfg.FaultAt-netsim.Second, func() { stateAtFault = dep.TotalState() })
	switch kind {
	case FaultLoss0:
		// Control cell: the membership change alone.
	case FaultLoss5:
		sched.At(cfg.FaultAt, func() { in.SetBernoulli(nil, 0.05, faults.ControlOnly) })
	case FaultLoss20:
		sched.At(cfg.FaultAt, func() { in.SetBernoulli(nil, 0.20, faults.ControlOnly) })
	case FaultFlap:
		// Three down/up cycles on the tree's transit link starting at the
		// fault: down 15 s, up 15 s.
		in.Flap(sim.EdgeLinks[2], cfg.FaultAt, 15*netsim.Second, 15*netsim.Second, 3)
	case FaultCrash:
		sched.At(cfg.FaultAt, func() { dep.Crash(2) })
		sched.At(cfg.RestartAt, func() { dep.Restart(2) })
	default:
		panic("experiments: unknown recovery fault " + kind)
	}

	sim.Run(cfg.End)

	// Recovery instant, read post-run from whichever lane's probe observed
	// the proving site. Loss cells recover when the late joiner (B) hears
	// anything; topology cells when A receives a packet sent after the fault
	// (pre-fault packets in flight don't count).
	recoveredAt := netsim.Time(-1)
	for _, probe := range probes {
		if lossKind {
			if at, ok := probe.FirstDeliveryAt(recvBRouter, cfg.JoinAt); ok {
				recoveredAt = at
			}
		} else if at, ok := probe.FirstDeliverySentAfter(recvARouter, cfg.FaultAt); ok {
			recoveredAt = at
		}
	}
	if recoveredAt >= 0 {
		run.recovery = recoveredAt - windowStart
	}

	// Control effort: protocol control-message sends between the window
	// start and the delivery that proved the repaired tree (run end when
	// delivery never resumed). Counting send events by timestamp is
	// order-free, so the tally is identical on every shard count.
	windowEnd := cfg.End
	if recoveredAt >= 0 {
		windowEnd = recoveredAt
	}
	for _, times := range laneCtrl {
		for _, at := range times {
			if at >= windowStart && at <= windowEnd {
				run.ctrl++
			}
		}
	}

	// Canonical delivery trace: lane buffers merged and sorted by the full
	// event tuple, so the trace is independent of both shard count and
	// publication interleaving.
	for _, tr := range laneTraces {
		run.trace = append(run.trace, tr...)
	}
	slices.SortFunc(run.trace, func(x, y DeliveryEvent) int {
		if x.At != y.At {
			return cmp.Compare(x.At, y.At)
		}
		if x.Host != y.Host {
			return cmp.Compare(x.Host, y.Host)
		}
		if x.Src != y.Src {
			return cmp.Compare(x.Src, y.Src)
		}
		return cmp.Compare(x.Sent, y.Sent)
	})

	run.residual = dep.TotalState() - stateAtFault
	run.delivered = recvA.Received[group] + recvB.Received[group]
	run.treeQuiet = cfg.End
	lastMut := netsim.Time(-1)
	for _, probe := range probes {
		if at, ok := probe.LastTreeMutation(); ok && at > lastMut {
			lastMut = at
		}
	}
	if lastMut >= 0 {
		run.treeQuiet = cfg.End - lastMut
	}
	for _, v := range dep.Violations() {
		run.violations = append(run.violations, v.String())
	}
	return run
}
