package experiments

import (
	"reflect"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/scenario"
)

// shortRecovery shrinks the matrix run for smoke testing: same topology and
// clocks, shorter tail after the restart.
func shortRecovery() RecoveryConfig {
	cfg := DefaultRecovery()
	cfg.End = 150 * netsim.Second
	return cfg
}

// TestRecoveryMatrix runs the full fault matrix and checks the acceptance
// property: every protocol's late join converging through control-plane
// loss, up to 20%.
func TestRecoveryMatrix(t *testing.T) {
	cfg := shortRecovery()
	if testing.Short() {
		cfg.Workers = 1
	}
	res := RunRecovery(cfg)
	if len(res.Cells) != len(RecoveryProtocols())*len(RecoveryFaults()) {
		t.Fatalf("matrix has %d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		t.Logf("%-8s %-7s recovered=%-5v t=%6.2fs ctrl=%4d residual=%3d delivered=%d",
			c.Protocol, c.Fault, c.Recovered, c.RecoverySec, c.CtrlMessages, c.ResidualState, c.Delivered)
		// The loss cells answer the paper's §2 robustness claim directly:
		// periodic refresh (plus the acked graft/join handshakes) must
		// converge the late join through 20% control loss.
		if c.Fault != FaultFlap && c.Fault != FaultCrash && !c.Recovered {
			t.Errorf("%s/%s: late join never converged", c.Protocol, c.Fault)
		}
	}
}

// TestRecoveryMatrixChecked reruns the matrix with the online invariant
// checker attached to every cell: lost control messages, link flaps, and
// crash/restart cycles must not produce a dead-epoch timer fire, an
// RPF-inconsistent iif, a negative-cache leak, or a dirty restart.
func TestRecoveryMatrixChecked(t *testing.T) {
	cfg := shortRecovery()
	cfg.Checked = true
	if testing.Short() {
		cfg.Workers = 1
	}
	res := RunRecovery(cfg)
	for _, c := range res.Cells {
		for _, v := range c.Violations {
			t.Errorf("%s/%s: invariant violation: %s", c.Protocol, c.Fault, v)
		}
	}
}

// engineProbes extracts per-router state and neighbor probes from a
// deployment. neighbors is nil for the protocols that keep no neighbor
// liveness table (CBT tracks per-group children, MOSPF uses the domain).
func engineProbes(dep scenario.Deployment) (state func(i int) int, neighbors func() int) {
	switch d := dep.(type) {
	case *scenario.PIMDeployment:
		state = func(i int) int { return d.Routers[i].StateCount() }
		neighbors = func() int {
			n := 0
			for _, r := range d.Routers {
				n += r.NeighborCount()
			}
			return n
		}
	case *scenario.PIMDMDeployment:
		state = func(i int) int { return d.Routers[i].StateCount() }
		neighbors = func() int {
			n := 0
			for _, r := range d.Routers {
				n += r.NeighborCount()
			}
			return n
		}
	case *scenario.DVMRPDeployment:
		state = func(i int) int { return d.Routers[i].StateCount() }
		neighbors = func() int {
			n := 0
			for _, r := range d.Routers {
				n += r.NeighborCount()
			}
			return n
		}
	case *scenario.CBTDeployment:
		state = func(i int) int { return d.Routers[i].StateCount() }
	case *scenario.MOSPFDeployment:
		state = func(i int) int { return d.Routers[i].StateCount() }
	}
	return state, neighbors
}

// TestCrashRestartPerEngine is the acceptance test for the Restart
// lifecycle: for every engine, kill the mid-tree router at steady state,
// verify its state is really gone, and verify both that delivery resumes
// within a bounded number of refresh intervals after the restart and that
// no permanently stale neighbor entries survive.
func TestCrashRestartPerEngine(t *testing.T) {
	const (
		faultAt   = 60 * netsim.Second
		restartAt = 90 * netsim.Second
		// settleAt leaves three join/prune refresh intervals (20 s) after
		// the restart for the slowest soft-state rebuild.
		settleAt = 160 * netsim.Second
	)
	for _, proto := range RecoveryProtocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			sim, src, recvA, recvB := recoverySim(proto, 1)
			group := addr.GroupForIndex(0)
			dep := deployRecovery(sim, proto, group, 3)
			state, neighbors := engineProbes(dep)

			sched := sim.Net.Sched
			sched.At(2*netsim.Second, func() { recvA.Join(group) })
			sched.At(2*netsim.Second, func() { recvB.Join(group) })
			for at := 5 * netsim.Second; at < settleAt; at += 2 * netsim.Second {
				at := at
				sched.At(at, func() { scenario.SendData(src, group, 64) })
			}

			sim.Run(faultAt)
			if recvA.Received[group] == 0 || recvB.Received[group] == 0 {
				t.Fatalf("no steady-state delivery before the fault: A=%d B=%d",
					recvA.Received[group], recvB.Received[group])
			}
			dep.Crash(2)
			if got := state(2); got != 0 {
				t.Fatalf("crashed router still holds %d state entries", got)
			}

			sim.Run(restartAt - faultAt)
			dep.Restart(2)
			if got := state(2); got != 0 {
				t.Fatalf("restarted router came back with %d preserved entries", got)
			}
			sim.Run(5 * netsim.Second)
			baseA, baseB := recvA.Received[group], recvB.Received[group]
			sim.Run(settleAt - restartAt - 5*netsim.Second)

			if recvA.Received[group] <= baseA || recvB.Received[group] <= baseB {
				t.Errorf("delivery did not resume within 3 refresh intervals of the restart: A %d->%d, B %d->%d",
					baseA, recvA.Received[group], baseB, recvB.Received[group])
			}
			if neighbors != nil {
				// 5 backbone edges, one live entry per endpoint: a higher
				// count means a stale entry survived the crash, a lower one
				// means the restarted router was not re-learned.
				if got := neighbors(); got != 10 {
					t.Errorf("live neighbor entries = %d after settle, want 10", got)
				}
			}
		})
	}
}

// TestRecoveryDeterministicAcrossWorkers is the determinism regression: the
// matrix must be bit-identical whatever the worker count, because every cell
// is an isolated simulation seeded from (Seed, cell index) only.
func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix comparison; covered by TestRecoveryMatrix in short mode")
	}
	cfg := shortRecovery()
	cfg.Workers = 1
	seq := RunRecovery(cfg)
	cfg.Workers = 4
	par := RunRecovery(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results differ across Workers:\nworkers=1: %+v\nworkers=4: %+v", seq, par)
	}
}
