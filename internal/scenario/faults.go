package scenario

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// Deployment is the uniform surface every protocol deployment exposes: the
// fault layer (internal/faults, internal/script, the recovery experiment)
// kills and revives routers through it, and reads the invariant checker
// through it, without knowing which protocol is running.
type Deployment interface {
	// Crash fail-stops router i: all interfaces down, engine and IGMP
	// querier stopped with their soft state discarded.
	Crash(i int)
	// Restart revives router i empty; state rebuilds from soft-state
	// refresh only.
	Restart(i int)
	// Stop shuts down every engine and querier of the deployment.
	Stop()
	// TotalState sums forwarding/tree/membership entries across routers.
	TotalState() int
	// StateAt returns router i's forwarding/tree entry count.
	StateAt(i int) int
	// Checker returns the online invariant checker (nil unless enabled
	// with WithInvariantChecker, and nil on sharded deployments, which
	// run one checker per lane — use Violations there).
	Checker() *telemetry.Checker
	// Violations aggregates invariant-checker findings across every lane,
	// sorted by time then router (empty without WithInvariantChecker).
	Violations() []telemetry.Violation
}

// Engine is what a deployment needs of one router's multicast engine: the
// crash/restart lifecycle, the telemetry attach point every engine embeds
// (engine.Lifecycle), the IGMP membership hooks, and its state count.
type Engine interface {
	faults.Lifecycle
	Start()
	SetTelemetry(*telemetry.Bus)
	LocalJoin(*netsim.Iface, addr.IP)
	LocalLeave(*netsim.Iface, addr.IP)
	StateCount() int
}

// EngineDeployment is one multicast engine R plus an IGMP querier on every
// router of a Sim. The per-protocol deployment types are this type or thin
// embedders of it that add protocol-specific readers.
type EngineDeployment[R Engine] struct {
	Sim      *Sim
	Routers  []R
	Queriers []*igmp.Querier
	checkers []*telemetry.Checker
}

// deployEngines starts the engine newEngine builds, plus an IGMP querier
// feeding it membership, on every router of the simulation.
func deployEngines[R Engine](s *Sim, o *DeployOptions, chks []*telemetry.Checker, newEngine func(i int, nd *netsim.Node) R) EngineDeployment[R] {
	d := EngineDeployment[R]{Sim: s, checkers: chks}
	for i, nd := range s.Routers {
		r := newEngine(i, nd)
		r.SetTelemetry(o.busFor(nd))
		q := s.newQuerier(nd, o)
		q.OnJoin, q.OnLeave = r.LocalJoin, r.LocalLeave
		r.Start()
		q.Start()
		d.Routers = append(d.Routers, r)
		d.Queriers = append(d.Queriers, q)
	}
	return d
}

// engines lists the lifecycles running on router i, in stop order.
func (d *EngineDeployment[R]) engines(i int) []faults.Lifecycle {
	return []faults.Lifecycle{d.Routers[i], d.Queriers[i]}
}

// Crash fail-stops router i (see Deployment).
func (d *EngineDeployment[R]) Crash(i int) {
	faults.CrashRouter(d.Sim.Net, d.Sim.Routers[i], d.engines(i)...)
}

// Restart revives router i (see Deployment).
func (d *EngineDeployment[R]) Restart(i int) {
	faults.RestartRouter(d.Sim.Net, d.Sim.Routers[i], d.engines(i)...)
}

// Stop shuts down every engine and querier.
func (d *EngineDeployment[R]) Stop() {
	for i := range d.Routers {
		for _, e := range d.engines(i) {
			e.Stop()
		}
	}
}

// StateAt returns router i's state count: forwarding entries, CBT tree
// entries, or MOSPF cache entries plus membership rows.
func (d *EngineDeployment[R]) StateAt(i int) int { return d.Routers[i].StateCount() }

// TotalState sums StateAt across all routers — the network-wide state
// metric of §1.2.
func (d *EngineDeployment[R]) TotalState() int {
	total := 0
	for _, r := range d.Routers {
		total += r.StateCount()
	}
	return total
}

// Checker returns the online invariant checker (nil unless enabled; nil for
// per-shard-lane deployments, which carry one checker per lane — see
// Violations for the aggregate).
func (d *EngineDeployment[R]) Checker() *telemetry.Checker {
	if len(d.checkers) == 1 {
		return d.checkers[0]
	}
	return nil
}

// Violations aggregates every checker's failed invariants (one checker per
// telemetry lane when sharded), merged into simulated-time order.
func (d *EngineDeployment[R]) Violations() []telemetry.Violation {
	var all []telemetry.Violation
	for _, c := range d.checkers {
		all = append(all, c.Violations()...)
	}
	slices.SortStableFunc(all, func(x, y telemetry.Violation) int {
		if x.At != y.At {
			return cmp.Compare(x.At, y.At)
		}
		return cmp.Compare(x.Router, y.Router)
	})
	return all
}
