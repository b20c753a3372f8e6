package scenario

import (
	"pim/internal/cbt"
	"pim/internal/dvmrp"
	"pim/internal/mospf"
	"pim/internal/pimdm"
)

// DVMRPDeployment is a DVMRP baseline instance on every router of a Sim.
type DVMRPDeployment struct {
	EngineDeployment[*dvmrp.Router]
}

// StateBytes sums the MFIB memory footprint across all routers.
func (d *DVMRPDeployment) StateBytes() int64 {
	var total int64
	for _, r := range d.Routers {
		total += r.MFIB.Bytes()
	}
	return total
}

// CBTDeployment is a CBT baseline instance on every router of a Sim.
type CBTDeployment = EngineDeployment[*cbt.Router]

// MOSPFDeployment is an MOSPF baseline instance on every router of a Sim,
// sharing one link-state Domain.
type MOSPFDeployment struct {
	EngineDeployment[*mospf.Router]
	Domain *mospf.Domain
}

// PIMDMDeployment is a PIM dense-mode instance on every router of a Sim.
type PIMDMDeployment struct {
	EngineDeployment[*pimdm.Router]
}

// StateBytes sums the MFIB memory footprint across all routers.
func (d *PIMDMDeployment) StateBytes() int64 {
	var total int64
	for _, r := range d.Routers {
		total += r.MFIB.Bytes()
	}
	return total
}
