package scenario

import (
	"pim/internal/core"
	"pim/internal/metrics"
)

// PIMDeployment is a PIM-SM protocol instance on every router of a Sim,
// wired to per-router IGMP queriers.
type PIMDeployment struct {
	EngineDeployment[*core.Router]
}

// StateBytes sums the MFIB memory footprint across all routers — the
// byte-level cost of the entry count TotalState reports (DESIGN.md §16).
func (d *PIMDeployment) StateBytes() int64 {
	var total int64
	for _, r := range d.Routers {
		total += r.MFIB.Bytes()
	}
	return total
}

// ControlMessages sums the named control counters across all routers.
func (d *PIMDeployment) ControlMessages() int64 {
	var total int64
	for _, r := range d.Routers {
		total += r.Metrics.Get(metrics.CtrlJoinPrune) +
			r.Metrics.Get(metrics.CtrlRegister) +
			r.Metrics.Get(metrics.CtrlRPReach)
	}
	return total
}
