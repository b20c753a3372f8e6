package experiments

import (
	"testing"

	"pim/internal/netsim"
)

// TestCtrlPlaneDeterministic re-runs one cell and requires identical
// simulated observables — the benchmark itself must be replayable.
func TestCtrlPlaneDeterministic(t *testing.T) {
	cfg := CtrlPlaneConfig{
		Nodes: 24, Degree: 4, Groups: 2, Members: 3, Seed: 11,
		Warmup: 20 * netsim.Second, Duration: 60 * netsim.Second,
	}
	a := runCtrlPlaneCell(cfg, PIMSM)
	b := runCtrlPlaneCell(cfg, PIMSM)
	if a.CtrlMessages != b.CtrlMessages || a.State != b.State || a.Events != b.Events {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
