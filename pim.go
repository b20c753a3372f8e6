// Package pim is a reproduction of "An Architecture for Wide-Area Multicast
// Routing" (Deering, Estrin, Farinacci, Jacobson, Liu, Wei — SIGCOMM 1994):
// the Protocol Independent Multicast sparse-mode architecture, the baseline
// protocols it is evaluated against (DVMRP, MOSPF, CBT, PIM dense mode),
// the discrete-event network substrate they all run on, and the experiment
// harnesses that regenerate the paper's figures.
//
// This package is the public façade: it re-exports the library's primary
// types and entry points so applications depend on a single import path.
// The implementation lives in internal/ (see DESIGN.md for the full system
// inventory):
//
//	internal/core        PIM sparse mode — the paper's contribution (§3)
//	internal/pimdm       PIM dense mode (companion protocol [13])
//	internal/dvmrp       DVMRP flood-and-prune baseline [4]
//	internal/mospf       MOSPF link-state baseline [3]
//	internal/cbt         Core Based Trees baseline [10]
//	internal/unicast     pluggable unicast routing (oracle, DV, LS)
//	internal/igmp        host membership + RP-mapping host messages
//	internal/netsim      deterministic discrete-event network simulator
//	internal/topology    graphs, random internets, Dijkstra, trees
//	internal/trees       Figure 2 tree-quality analyses
//	internal/experiments Figure 1 and sparse-overhead experiment drivers
//
// # Quick start
//
// Build a topology, wire it into a simulation, deploy PIM-SM, and exchange
// multicast data:
//
//	g := pim.NewTopology(4)
//	g.AddEdge(0, 1, 1)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 1)
//	sim := pim.BuildSim(g)
//	receiver := sim.AddHost(0)
//	sender := sim.AddHost(3)
//	sim.FinishUnicast(pim.UseOracle)
//	group := pim.GroupAddress(0)
//	rp := sim.RouterAddr(2)
//	dep := sim.Deploy(pim.SparseMode,
//	        pim.WithRPMapping(map[pim.IP][]pim.IP{group: {rp}}))
//	sim.Run(2 * pim.Second)
//	receiver.Join(group)
//	sim.Run(2 * pim.Second)
//	pim.SendData(sender, group, 128)
//	sim.Run(pim.Second)
//	fmt.Println(receiver.Received[group], dep.TotalState()) // 1 <entries>
//
// Deploy runs any of the five protocols (SparseMode, DenseMode, DVMRPMode,
// CBTMode, MOSPFMode) behind one Deployment interface; functional options
// configure rendezvous mapping, SPT policy, telemetry, and the online
// invariant checker. Protocol-specific state (per-router engines, IGMP
// queriers) is reachable by asserting to the concrete deployment type,
// e.g. sim.Deploy(pim.SparseMode, ...).(*pim.PIMDeployment).
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// figure-by-figure reproduction record.
package pim

import (
	"io"
	"math/rand"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/experiments"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/pimdm"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
	"pim/internal/tracefmt"
	"pim/internal/trees"
)

// Core addressing and time types.
type (
	// IP is an IPv4-style address.
	IP = addr.IP
	// Prefix is a CIDR prefix.
	Prefix = addr.Prefix
	// Time is simulated time in microseconds.
	Time = netsim.Time
)

// Time units.
const (
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// Simulation building blocks.
type (
	// Topology is an undirected weighted graph of routers.
	Topology = topology.Graph
	// Sim is a wired simulation: routers, links, hosts, unicast routing.
	Sim = scenario.Sim
	// Host is an IGMP host attached to a router's stub LAN.
	Host = igmp.Host
	// UnicastMode selects the unicast substrate (UseOracle/UseDV/UseLS).
	UnicastMode = scenario.UnicastMode
)

// Unicast substrate choices.
const (
	UseOracle = scenario.UseOracle
	UseDV     = scenario.UseDV
	UseLS     = scenario.UseLS
)

// PIM sparse mode configuration.
type (
	// Config configures a PIM-SM router (RP mapping, timers, SPT policy).
	Config = core.Config
	// SPTPolicy selects shared-tree vs shortest-path-tree behaviour.
	SPTPolicy = core.SPTPolicy
	// Router is a PIM sparse-mode router instance.
	Router = core.Router
	// DenseConfig configures PIM dense-mode routers (flood-and-prune).
	DenseConfig = pimdm.Config
	// InteropDeployment is a mixed sparse/dense internet with border
	// routers splicing the dense regions onto sparse trees (§4).
	InteropDeployment = scenario.InteropDeployment
)

// SPT switching policies (§3.3 of the paper).
const (
	SwitchImmediate = core.SwitchImmediate
	SwitchNever     = core.SwitchNever
	SwitchThreshold = core.SwitchThreshold
)

// Unified deployment façade: sim.Deploy(mode, opts...) starts any of the
// five protocols plus IGMP behind one interface.
type (
	// Mode selects the protocol Deploy runs on every router.
	Mode = scenario.Protocol
	// Deployment is the uniform surface every protocol deployment exposes:
	// Crash/Restart/Stop lifecycle, TotalState/StateAt state metrics, and
	// the Checker/Violations invariant-checker hooks.
	Deployment = scenario.Deployment
	// PIMDeployment is the concrete sparse-mode deployment (per-router
	// core.Router and IGMP querier access).
	PIMDeployment = scenario.PIMDeployment
	// DeployOption is a functional deployment option for Deploy.
	DeployOption = scenario.DeployOption
	// Lifecycle is the stop/restart surface every protocol engine and the
	// IGMP querier implement — the unit internal/faults crash/restart
	// cycles operate on.
	Lifecycle = faults.Lifecycle
)

// Deployable protocols.
const (
	SparseMode = scenario.SparseMode
	DenseMode  = scenario.DenseMode
	DVMRPMode  = scenario.DVMRPMode
	CBTMode    = scenario.CBTMode
	MOSPFMode  = scenario.MOSPFMode
)

// WithRPMapping maps groups to ordered RP candidate lists (sparse mode) and
// derives the CBT core mapping from each group's first candidate.
func WithRPMapping(m map[IP][]IP) DeployOption { return scenario.WithRPMapping(m) }

// WithSPTPolicy sets the sparse-mode shared-tree→SPT switching policy (§3.3).
func WithSPTPolicy(p SPTPolicy) DeployOption { return scenario.WithSPTPolicy(p) }

// WithAggregation keys sparse-mode (S,G) state by source subnet (§4).
func WithAggregation() DeployOption { return scenario.WithAggregation() }

// WithTelemetry attaches an event bus to every engine, querier, and host.
func WithTelemetry(b *TelemetryBus) DeployOption { return scenario.WithTelemetry(b) }

// WithInvariantChecker attaches the online §3.8 invariant checker.
func WithInvariantChecker() DeployOption { return scenario.WithInvariantChecker() }

// WithIGMPTimers overrides the IGMP query interval and membership hold time.
func WithIGMPTimers(query, hold Time) DeployOption { return scenario.WithIGMPTimers(query, hold) }

// WithCoreConfig replaces the sparse-mode configuration wholesale.
func WithCoreConfig(cfg Config) DeployOption { return scenario.WithCoreConfig(cfg) }

// WithDenseConfig replaces the dense-mode configuration wholesale.
func WithDenseConfig(cfg DenseConfig) DeployOption { return scenario.WithDenseConfig(cfg) }

// Telemetry plane (see DESIGN.md "Telemetry plane"): a zero-cost-when-
// disabled event bus every engine publishes structured events to, with a
// time-series sampler, convergence probes, and an online invariant checker
// subscribing to it.
type (
	// TelemetryBus fans deployment events to subscribers in order.
	TelemetryBus = telemetry.Bus
	// TelemetryEvent is one structured protocol event.
	TelemetryEvent = telemetry.Event
	// TelemetrySampler folds events into per-router counter curves.
	TelemetrySampler = telemetry.Sampler
	// ConvergenceProbe detects delivery convergence and tree stabilization.
	ConvergenceProbe = telemetry.ConvergenceProbe
	// InvariantChecker asserts the §3.8 soft-state contracts online.
	InvariantChecker = telemetry.Checker
	// InvariantViolation is one failed contract observation.
	InvariantViolation = telemetry.Violation
)

// NewTelemetryBus creates an event bus for WithTelemetry.
func NewTelemetryBus() *TelemetryBus { return telemetry.NewBus() }

// NewTelemetrySampler attaches a counter-curve sampler to the bus with the
// given bucket interval.
func NewTelemetrySampler(bus *TelemetryBus, interval Time) *TelemetrySampler {
	return telemetry.NewSampler(bus, interval)
}

// NewConvergenceProbe attaches a convergence probe to the bus.
func NewConvergenceProbe(bus *TelemetryBus) *ConvergenceProbe {
	return telemetry.NewConvergenceProbe(bus)
}

// NewTopology creates an empty topology with n routers.
func NewTopology(n int) *Topology { return topology.New(n) }

// RandomTopology generates a connected random internet with the given
// average node degree — the paper's Figure 2 topology model.
func RandomTopology(nodes int, degree float64, seed int64) *Topology {
	return topology.Random(topology.GenConfig{Nodes: nodes, Degree: degree},
		rand.New(rand.NewSource(seed)))
}

// BuildSim wires a topology into a runnable simulation.
func BuildSim(g *Topology) *Sim { return scenario.Build(g) }

// GroupAddress mints the i-th multicast group address (225.0.0.i).
func GroupAddress(i int) IP { return addr.GroupForIndex(i) }

// ParseIP parses a dotted-quad address.
func ParseIP(s string) (IP, error) { return addr.ParseIP(s) }

// SendData injects one timestamped multicast data packet from a host.
func SendData(h *Host, g IP, size int) { scenario.SendData(h, g, size) }

// TraceEvent is one packet delivery observed by a Sim's trace hook.
type TraceEvent = netsim.TraceEvent

// FormatTrace renders a trace event as a decoded one-line protocol summary
// (the repository's tcpdump).
func FormatTrace(ev TraceEvent) string { return tracefmt.Event(ev) }

// Experiment drivers (see EXPERIMENTS.md).
type (
	// Fig2aPoint is one Figure 2(a) series point (delay-ratio statistics).
	Fig2aPoint = trees.Fig2aPoint
	// Fig2bPoint is one Figure 2(b) series point (max per-link flows).
	Fig2bPoint = trees.Fig2bPoint
	// Fig2aConfig / Fig2bConfig parameterize the Figure 2 sweeps.
	Fig2aConfig = trees.Fig2aConfig
	Fig2bConfig = trees.Fig2bConfig
	// Protocol names a multicast protocol in the comparison harness.
	Protocol = experiments.Protocol
	// OverheadResult is one protocol's state/control/data ledger.
	OverheadResult = experiments.Result
	// SparseConfig parameterizes the sparse-group overhead comparison.
	SparseConfig = experiments.SparseConfig
	// Fig1Result reports a protocol's footprint on the Figure 1 scenario.
	Fig1Result = experiments.Fig1Result
	// ScalingPoint is one sample of a §1.2 overhead-growth sweep.
	ScalingPoint = experiments.ScalingPoint
)

// Comparable protocols.
const (
	ProtoPIMSM       = experiments.PIMSM
	ProtoPIMSMShared = experiments.PIMSMShared
	ProtoPIMDM       = experiments.PIMDM
	ProtoDVMRP       = experiments.DVMRP
	ProtoCBT         = experiments.CBT
	ProtoMOSPF       = experiments.MOSPF
)

// RunFigure2a regenerates the paper's Figure 2(a) series: the ratio of
// optimal core-based tree maximum delay to shortest-path maximum delay
// across node degrees. Trials fan across cfg.Workers workers (0 =
// GOMAXPROCS); the series is bit-identical for every worker count.
func RunFigure2a(cfg Fig2aConfig) []Fig2aPoint { return trees.RunFig2a(cfg) }

// DefaultFigure2a returns the paper's Figure 2(a) parameters (50 nodes,
// 10-member groups, degrees 3–8) with a reduced trial count.
func DefaultFigure2a() Fig2aConfig { return trees.DefaultFig2a() }

// RunFigure2b regenerates the paper's Figure 2(b) series: maximum per-link
// traffic flows under per-source SPTs versus center-based shared trees.
// Trials fan across cfg.Workers workers (0 = GOMAXPROCS); the series is
// bit-identical for every worker count.
func RunFigure2b(cfg Fig2bConfig) []Fig2bPoint { return trees.RunFig2b(cfg) }

// DefaultFigure2b returns the paper's Figure 2(b) parameters (300 groups of
// 40 members, 32 senders) with a reduced trial count.
func DefaultFigure2b() Fig2bConfig { return trees.DefaultFig2b() }

// RunSparseOverhead measures one protocol's overhead on a sparse-group
// workload (the paper's §1.2 ledger: state, control messages, data packet
// processing).
func RunSparseOverhead(cfg SparseConfig, p Protocol) OverheadResult {
	return experiments.RunSparse(cfg, p)
}

// CompareSparseOverhead runs several protocols over the identical topology
// and workload. The per-protocol runs fan across cfg.Workers workers (0 =
// GOMAXPROCS); the ledger is bit-identical for every worker count.
func CompareSparseOverhead(cfg SparseConfig, ps []Protocol) []OverheadResult {
	return experiments.CompareSparse(cfg, ps)
}

// DefaultSparseConfig returns the laptop-scale sparse workload defaults.
func DefaultSparseConfig() SparseConfig { return experiments.DefaultSparse() }

// AllProtocols lists every protocol the comparison harness supports.
func AllProtocols() []Protocol { return experiments.AllProtocols() }

// RunFigure1Broadcast reproduces Figure 1(b): periodic re-broadcast cost of
// dense-mode protocols versus sparse-mode trees on the three-domain
// internet.
func RunFigure1Broadcast(p Protocol, pruneLifetime Time) Fig1Result {
	return experiments.RunFig1Broadcast(p, pruneLifetime)
}

// RunFigure1Concentration reproduces Figure 1(c): traffic concentration and
// non-shortest sender paths on a shared tree.
func RunFigure1Concentration(p Protocol) Fig1Result {
	return experiments.RunFig1Concentration(p)
}

// RunSenderScaling sweeps the per-group sender count (§1.2 "size of sender
// sets"): PIM state enumerates sources, CBT's shared tree does not.
func RunSenderScaling(base SparseConfig, counts []int, ps []Protocol) []ScalingPoint {
	return experiments.RunSenderScaling(base, counts, ps)
}

// RunGroupScaling sweeps the number of active groups (§1.2 "number of
// groups").
func RunGroupScaling(base SparseConfig, counts []int, ps []Protocol) []ScalingPoint {
	return experiments.RunGroupScaling(base, counts, ps)
}

// RunMemberScaling sweeps the per-group receiver count (§1.2 "size of
// groups").
func RunMemberScaling(base SparseConfig, counts []int, ps []Protocol) []ScalingPoint {
	return experiments.RunMemberScaling(base, counts, ps)
}

// RunSizeScaling sweeps the internet size (§1.2 "size of the internet").
func RunSizeScaling(base SparseConfig, counts []int, ps []Protocol) []ScalingPoint {
	return experiments.RunSizeScaling(base, counts, ps)
}

// ChurnConfig / ChurnResult parameterize and report the §2 group-dynamics
// experiment (control cost per membership change).
type (
	ChurnConfig = experiments.ChurnConfig
	ChurnResult = experiments.ChurnResult
)

// CongestionConfig / CongestionResult parameterize and report the
// concentration→queueing experiment (finite link bandwidth).
type (
	CongestionConfig = experiments.CongestionConfig
	CongestionResult = experiments.CongestionResult
)

// DefaultCongestionConfig returns the default congestion workload.
func DefaultCongestionConfig() CongestionConfig { return experiments.DefaultCongestion() }

// RunCongestion measures delivery delay under finite link bandwidth for one
// tree policy.
func RunCongestion(cfg CongestionConfig, p Protocol) CongestionResult {
	return experiments.RunCongestion(cfg, p)
}

// DefaultChurnConfig returns laptop-scale churn defaults.
func DefaultChurnConfig() ChurnConfig { return experiments.DefaultChurn() }

// RunChurn measures the control cost of membership dynamics.
func RunChurn(cfg ChurnConfig) ChurnResult { return experiments.RunChurn(cfg) }

// ParseTopology reads a cmd/topogen edge-list file.
func ParseTopology(r io.Reader) (*Topology, error) { return topology.ParseEdgeList(r) }

// RunSparseOverheadOn is RunSparseOverhead over a caller-supplied topology.
func RunSparseOverheadOn(g *Topology, cfg SparseConfig, p Protocol) OverheadResult {
	return experiments.RunSparseOn(g, cfg, p)
}
