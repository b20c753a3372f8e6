package scenario

import (
	"pim/internal/addr"
	"pim/internal/border"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/pimdm"
)

// InteropDeployment is a mixed sparse/dense internet (§4): routers in dense
// regions run PIM dense mode, the rest run PIM sparse mode, and every
// sparse router adjacent to a dense region becomes a border router that
// splices the region onto the sparse trees.
type InteropDeployment struct {
	Sim *Sim
	// Sparse[i], Dense[i], Borders[i] — exactly one is non-nil per router.
	Sparse   []*core.Router
	Dense    []*pimdm.Router
	Borders  []*border.BorderRouter
	Queriers []*igmp.Querier
}

// DeployInterop starts the mixed deployment. denseRouters marks the routers
// inside dense-mode regions ("links should be configurable to operate in
// dense mode or in sparse mode", §4); the split is derived per interface:
// a sparse router's interfaces toward dense neighbors become its dense-side
// (border) interfaces.
func (s *Sim) DeployInterop(sparseCfg core.Config, denseCfg pimdm.Config, denseRouters map[int]bool) *InteropDeployment {
	d := &InteropDeployment{
		Sim:     s,
		Sparse:  make([]*core.Router, len(s.Routers)),
		Dense:   make([]*pimdm.Router, len(s.Routers)),
		Borders: make([]*border.BorderRouter, len(s.Routers)),
	}
	for i, nd := range s.Routers {
		var join func(*netsim.Iface, addr.IP)
		var leave func(*netsim.Iface, addr.IP)
		var learnRP func(addr.IP, []addr.IP)
		switch {
		case denseRouters[i]:
			r := pimdm.New(nd, denseCfg, s.UnicastFor(i))
			r.Start()
			d.Dense[i] = r
			join, leave = r.LocalJoin, r.LocalLeave
		case s.denseFacingIfaces(i, denseRouters) != nil:
			b := border.New(nd, sparseCfg, denseCfg, s.UnicastFor(i),
				s.denseFacingIfaces(i, denseRouters))
			b.Start()
			d.Borders[i] = b
			join, leave = b.LocalJoin, b.LocalLeave
			learnRP = b.Sparse.LearnRPMap
		default:
			r := core.New(nd, sparseCfg, s.UnicastFor(i))
			r.Start()
			d.Sparse[i] = r
			join, leave = r.LocalJoin, r.LocalLeave
			learnRP = r.LearnRPMap
		}
		q := igmp.NewQuerier(nd)
		q.OnJoin = join
		q.OnLeave = leave
		if learnRP != nil {
			q.OnRPMap = learnRP
		}
		q.Start()
		d.Queriers = append(d.Queriers, q)
	}
	return d
}

// denseFacingIfaces returns router i's interfaces whose links attach a
// dense-region router, or nil if none (then i is a plain sparse router).
func (s *Sim) denseFacingIfaces(i int, denseRouters map[int]bool) []*netsim.Iface {
	if denseRouters[i] {
		return nil
	}
	var out []*netsim.Iface
	for _, ifc := range s.Routers[i].Ifaces {
		if ifc.Link == nil {
			continue
		}
		for _, peer := range ifc.Link.Ifaces {
			if peer == ifc {
				continue
			}
			for j, nd := range s.Routers {
				if nd == peer.Node && denseRouters[j] {
					out = append(out, ifc)
				}
			}
		}
	}
	return out
}

// StateAt returns router i's forwarding entry count, from whichever
// protocol instance (sparse, dense or border) runs on it.
func (d *InteropDeployment) StateAt(i int) int {
	switch {
	case d.Sparse[i] != nil:
		return d.Sparse[i].StateCount()
	case d.Dense[i] != nil:
		return d.Dense[i].StateCount()
	default:
		return d.Borders[i].StateCount()
	}
}

// TotalState sums forwarding entries across every protocol instance.
func (d *InteropDeployment) TotalState() int {
	total := 0
	for i := range d.Sim.Routers {
		total += d.StateAt(i)
	}
	return total
}
