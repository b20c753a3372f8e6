package scenario

import (
	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/mospf"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/telemetry"
)

// Protocol selects which multicast engine Deploy runs on every router.
type Protocol int

const (
	// SparseMode deploys PIM sparse mode (the paper's contribution, §3).
	SparseMode Protocol = iota
	// DenseMode deploys PIM dense mode (companion protocol [13]).
	DenseMode
	// DVMRPMode deploys the DVMRP flood-and-prune baseline [4].
	DVMRPMode
	// CBTMode deploys the Core Based Trees baseline [10].
	CBTMode
	// MOSPFMode deploys the MOSPF link-state baseline [3].
	MOSPFMode
)

// String names the protocol for reports.
func (p Protocol) String() string {
	switch p {
	case SparseMode:
		return "pim-sm"
	case DenseMode:
		return "pim-dm"
	case DVMRPMode:
		return "dvmrp"
	case CBTMode:
		return "cbt"
	case MOSPFMode:
		return "mospf"
	}
	return "unknown"
}

// DeployOptions collects every deployment parameter. Zero value is a usable
// default; callers normally mutate it through DeployOption functions.
type DeployOptions struct {
	// Core / Dense / DVMRP / CBT are the per-engine configurations; only
	// the one matching the deployed Protocol is consulted.
	Core  core.Config
	Dense pimdm.Config
	DVMRP dvmrp.Config
	CBT   cbt.Config

	// Telemetry, when non-nil, is wired into every engine, every IGMP
	// querier, and every host (delivery events). Nil deploys with the
	// zero-cost disabled path everywhere.
	Telemetry *telemetry.Bus
	// ShardTelemetry, when non-nil, gives each shard a private event bus
	// (indexed by shard; length must be at least netsim's shard count).
	// Sharded runs must use lanes rather than one shared bus: a single bus
	// published from concurrently executing shards would race. Takes
	// precedence over Telemetry for engine/querier/host wiring.
	ShardTelemetry []*telemetry.Bus
	// InvariantChecker attaches an online telemetry.Checker asserting the
	// §3.8 soft-state contracts during the run, creating a Telemetry bus if
	// none was supplied.
	InvariantChecker bool
	// FailFast arms the checker's first-violation halt: the simulation's
	// scheduler stops at the violation's exact simulated time. Implies
	// InvariantChecker; sequential runs only (a shard goroutine must not
	// halt the root scheduler).
	FailFast bool

	// IGMPQueryInterval / IGMPHoldTime override the querier timers when
	// nonzero (fault experiments shrink them to speed re-learning).
	IGMPQueryInterval netsim.Time
	IGMPHoldTime      netsim.Time
	// MOSPFRefresh enables periodic LSA re-origination (MOSPFMode only).
	MOSPFRefresh netsim.Time
}

// DeployOption mutates DeployOptions; pass them to Deploy.
type DeployOption func(*DeployOptions)

// WithCoreConfig replaces the PIM sparse-mode configuration wholesale.
func WithCoreConfig(cfg core.Config) DeployOption {
	return func(o *DeployOptions) { o.Core = cfg }
}

// WithDenseConfig replaces the PIM dense-mode configuration wholesale.
func WithDenseConfig(cfg pimdm.Config) DeployOption {
	return func(o *DeployOptions) { o.Dense = cfg }
}

// WithDVMRPConfig replaces the DVMRP configuration wholesale.
func WithDVMRPConfig(cfg dvmrp.Config) DeployOption {
	return func(o *DeployOptions) { o.DVMRP = cfg }
}

// WithCBTConfig replaces the CBT configuration wholesale.
func WithCBTConfig(cfg cbt.Config) DeployOption {
	return func(o *DeployOptions) { o.CBT = cfg }
}

// WithRPMapping maps groups to ordered RP candidate lists for sparse mode
// and, for CBT, derives the core mapping from each group's first candidate —
// one option configures the rendezvous for either protocol family.
func WithRPMapping(m map[addr.IP][]addr.IP) DeployOption {
	return func(o *DeployOptions) {
		o.Core.RPMapping = m
		cores := map[addr.IP]addr.IP{}
		for g, rps := range m {
			if len(rps) > 0 {
				cores[g] = rps[0]
			}
		}
		o.CBT.CoreMapping = cores
	}
}

// WithSPTPolicy sets the sparse-mode shared-tree→SPT switching policy (§3.3).
func WithSPTPolicy(p core.SPTPolicy) DeployOption {
	return func(o *DeployOptions) { o.Core.SPTPolicy = p }
}

// WithAggregation keys sparse-mode (S,G) state by source subnet (§4).
func WithAggregation() DeployOption {
	return func(o *DeployOptions) { o.Core.AggregateSources = true }
}

// WithTelemetry attaches the event bus to every engine, querier, and host.
func WithTelemetry(b *telemetry.Bus) DeployOption {
	return func(o *DeployOptions) { o.Telemetry = b }
}

// WithShardTelemetry attaches one event bus per shard: every engine,
// querier, and host publishes to the lane of the shard its node runs on, so
// concurrently executing shards never share a bus. Callers merge or compare
// lanes after the run.
func WithShardTelemetry(lanes []*telemetry.Bus) DeployOption {
	return func(o *DeployOptions) { o.ShardTelemetry = lanes }
}

// WithInvariantChecker enables the online §3.8 invariant checker.
func WithInvariantChecker() DeployOption {
	return func(o *DeployOptions) { o.InvariantChecker = true }
}

// WithFailFast enables the invariant checker in fail-fast mode: the first
// violation halts the simulation at its exact simulated time (the clock
// freezes there; later RunUntil calls return immediately). Panics at deploy
// time on a sharded network — the checker runs on one bus, which sharded
// execution cannot feed race-free anyway.
func WithFailFast() DeployOption {
	return func(o *DeployOptions) { o.InvariantChecker, o.FailFast = true, true }
}

// WithIGMPTimers overrides the querier's query interval and hold time.
func WithIGMPTimers(query, hold netsim.Time) DeployOption {
	return func(o *DeployOptions) { o.IGMPQueryInterval, o.IGMPHoldTime = query, hold }
}

// WithMOSPFRefresh enables periodic membership-LSA re-origination.
func WithMOSPFRefresh(d netsim.Time) DeployOption {
	return func(o *DeployOptions) { o.MOSPFRefresh = d }
}

// Deploy starts the chosen multicast protocol plus IGMP on every router of
// the simulation. Call after FinishUnicast (and after convergence for DV/LS
// modes); MOSPFMode carries its own topology view and needs neither.
//
//	dep := sim.Deploy(scenario.SparseMode,
//	        scenario.WithRPMapping(map[addr.IP][]addr.IP{group: {rp}}),
//	        scenario.WithInvariantChecker())
func (s *Sim) Deploy(p Protocol, opts ...DeployOption) Deployment {
	o := &DeployOptions{}
	for _, fn := range opts {
		fn(o)
	}
	if o.ShardTelemetry != nil && s.Net.Sharded() && len(o.ShardTelemetry) < s.Net.ShardCount() {
		panic("scenario: fewer telemetry lanes than shards")
	}
	if o.InvariantChecker && o.Telemetry == nil && o.ShardTelemetry == nil {
		o.Telemetry = telemetry.NewBus()
	}

	// The checkers subscribe before any engine starts so they observe the
	// first EpochStart of every router. Per-shard-lane deployments get one
	// checker per lane (the invariants are per-router, so a lane checker
	// sees everything it needs).
	var chks []*telemetry.Checker
	if o.FailFast && s.Net.Sharded() {
		panic("scenario: WithFailFast requires an unsharded network (shards=1)")
	}
	if o.InvariantChecker {
		buses := o.ShardTelemetry
		if buses == nil {
			buses = []*telemetry.Bus{o.Telemetry}
		}
		for _, b := range buses {
			if b == nil {
				continue
			}
			chk := telemetry.NewChecker(b)
			if o.FailFast {
				chk.SetFailFast(true)
				chk.Halt = s.Net.Sched.Halt
			}
			switch p {
			case SparseMode, DenseMode, DVMRPMode:
				// These engines derive the expected incoming interface from
				// the unicast substrate, so the checker can recompute it.
				chk.ExpectedIIF = func(router int, target addr.IP) (int, bool) {
					rt, ok := s.UnicastFor(router).Lookup(target)
					if !ok || rt.Iface == nil {
						return 0, false
					}
					return rt.Iface.Index, true
				}
			}
			chks = append(chks, chk)
		}
	}

	var dep Deployment
	switch p {
	case SparseMode:
		d := &PIMDeployment{deployEngines(s, o, chks, func(i int, nd *netsim.Node) *core.Router {
			return core.New(nd, o.Core, s.UnicastFor(i))
		})}
		for i, q := range d.Queriers {
			q.OnRPMap = d.Routers[i].LearnRPMap
		}
		routers := d.Routers
		for _, chk := range chks {
			chk.NegativeCached = func(router int, src, g addr.IP, iface int) bool {
				r := routers[router]
				rpt := r.MFIB.SGRpt(src, g)
				if rpt == nil {
					return false
				}
				oif := rpt.OIF(iface)
				now := r.Node.Sched().Now()
				return oif != nil && oif.Live(now) && !oif.PrunePending
			}
		}
		dep = d
	case DenseMode:
		dep = &PIMDMDeployment{deployEngines(s, o, chks, func(i int, nd *netsim.Node) *pimdm.Router {
			return pimdm.New(nd, o.Dense, s.UnicastFor(i))
		})}
	case DVMRPMode:
		dep = &DVMRPDeployment{deployEngines(s, o, chks, func(i int, nd *netsim.Node) *dvmrp.Router {
			return dvmrp.New(nd, o.DVMRP, s.UnicastFor(i))
		})}
	case CBTMode:
		d := deployEngines(s, o, chks, func(i int, nd *netsim.Node) *cbt.Router {
			return cbt.New(nd, o.CBT, s.UnicastFor(i))
		})
		dep = &d
	case MOSPFMode:
		if s.Net.Sharded() {
			// MOSPF routers flood through a shared in-memory Domain whose
			// state is mutated synchronously from every router — racy and
			// order-sensitive across concurrently executing shards.
			panic("scenario: MOSPF requires an unsharded network (shards=1)")
		}
		// MOSPF carries its own topology view (the shared Domain), so
		// FinishUnicast is not required.
		dom := mospf.NewDomain(s.Routers)
		dep = &MOSPFDeployment{deployEngines(s, o, chks, func(_ int, nd *netsim.Node) *mospf.Router {
			r := mospf.New(nd, dom)
			r.RefreshInterval = o.MOSPFRefresh
			return r
		}), dom}
	default:
		panic("scenario: unknown protocol")
	}
	s.tapHosts(o)
	return dep
}

// busFor returns the event bus a node publishes to: its shard's lane when
// lanes are configured, else the deployment-wide bus.
func (o *DeployOptions) busFor(nd *netsim.Node) *telemetry.Bus {
	if o.ShardTelemetry != nil {
		return o.ShardTelemetry[nd.Shard()]
	}
	return o.Telemetry
}

// newQuerier builds one router's IGMP querier with the deployment-wide
// timer overrides and telemetry bus applied.
func (s *Sim) newQuerier(nd *netsim.Node, o *DeployOptions) *igmp.Querier {
	q := igmp.NewQuerier(nd)
	if o.IGMPQueryInterval > 0 {
		q.QueryInterval = o.IGMPQueryInterval
	}
	if o.IGMPHoldTime > 0 {
		q.HoldTime = o.IGMPHoldTime
	}
	q.SetTelemetry(o.busFor(nd))
	return q
}

// tapHosts chains a delivery-event publisher onto every host's OnData hook:
// Router is the attached router index, Iface the host's index on that LAN,
// and Value the SendData timestamp in microseconds (-1 when the payload
// carries none). Existing hooks keep firing after the tap.
func (s *Sim) tapHosts(o *DeployOptions) {
	if o.Telemetry == nil && o.ShardTelemetry == nil {
		return
	}
	for r := range s.Hosts {
		for hIdx, h := range s.Hosts[r] {
			r, hIdx, h := r, hIdx, h
			bus := o.busFor(h.Node)
			if bus == nil {
				continue
			}
			prev := h.OnData
			h.OnData = func(g addr.IP, pkt *packet.Packet) {
				now := h.Node.Sched().Now()
				sent := int64(-1)
				if lat, ok := Latency(now, pkt); ok {
					sent = int64(now - lat)
				}
				bus.Publish(telemetry.Event{
					At: now, Kind: telemetry.Deliver, Router: r, Iface: hIdx,
					Source: pkt.Src, Group: g, Value: sent,
				})
				if prev != nil {
					prev(g, pkt)
				}
			}
		}
	}
}
