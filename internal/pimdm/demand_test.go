package pimdm_test

import (
	"math/rand"
	"testing"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
	"pim/internal/scenario"
	"pim/internal/topology"
	"pim/internal/unicast"
)

// TestPureDenseSendsNoMemberAds pins the demand-driven advertisement
// contract: member-existence advertisements exist only for a border router
// (§4), so a dense-mode deployment with no border sends none, however much
// its membership churns. Both the protocol counter and the wire agree.
func TestPureDenseSendsNoMemberAds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := topology.Random(topology.GenConfig{Nodes: 20, Degree: 3}, rng)
	sim := scenario.Build(g)
	hosts := make([]*igmp.Host, g.N())
	for i := range hosts {
		hosts[i] = sim.AddHost(i)
	}
	sim.FinishUnicast(scenario.UseOracle)
	var wireAds int
	sim.Net.Trace = func(ev netsim.TraceEvent) {
		if ev.Pkt.Protocol != packet.ProtoPIM {
			return
		}
		if typ, _, err := pimmsg.Open(ev.Pkt.Payload); err == nil && typ == pimmsg.TypeMemberAd {
			wireAds++
		}
	}
	dep := sim.Deploy(scenario.DenseMode).(*scenario.PIMDMDeployment)

	groups := []addr.IP{addr.GroupForIndex(0), addr.GroupForIndex(1)}
	delivered := 0
	for step := 0; step < 100; step++ {
		h := hosts[rng.Intn(len(hosts))]
		grp := groups[rng.Intn(len(groups))]
		if h.Member(grp) {
			h.Leave(grp)
		} else {
			h.Join(grp)
		}
		scenario.SendData(hosts[0], grp, 64)
		sim.Run(netsim.Second)
	}
	for _, h := range hosts {
		for _, grp := range groups {
			delivered += h.Received[grp]
		}
	}
	if delivered == 0 {
		t.Fatal("no data reached any member: the deployment never ran")
	}

	var counted int64
	for _, r := range dep.Routers {
		counted += r.Metrics.Get(metrics.CtrlMemberAd)
	}
	if counted != 0 || wireAds != 0 {
		t.Fatalf("pure dense mode sent member ads: ctrl.memberad=%d, on the wire=%d", counted, wireAds)
	}
}

// TestRegionCallbackWiredAfterStart pins that whether a router advertises is
// decided when it originates, not fixed at Start: a border's dense instance
// whose OnRegionMembership is wired after Start still seeds the region and
// learns its members from the next periodic advertisement on.
//
//	border —— d (member of G0)
func TestRegionCallbackWiredAfterStart(t *testing.T) {
	net := netsim.NewNetwork()
	nb, nd := net.AddNode("border"), net.AddNode("d")
	net.Connect(net.AddIface(nb, addr.V4(10, 0, 0, 1)), net.AddIface(nd, addr.V4(10, 0, 0, 2)), netsim.Millisecond)
	stub := net.AddIface(nd, addr.V4(10, 100, 0, 254))
	oracle := unicast.NewOracle(net)
	rb := pimdm.New(nb, pimdm.Config{}, oracle.RouterFor(nb))
	rd := pimdm.New(nd, pimdm.Config{}, oracle.RouterFor(nd))
	rb.Start()
	rd.Start()
	g := addr.GroupForIndex(0)
	rd.LocalJoin(stub, g)
	net.Sched.RunUntil(netsim.Second)
	if n := rb.Metrics.Get(metrics.CtrlMemberAd) + rd.Metrics.Get(metrics.CtrlMemberAd); n != 0 {
		t.Fatalf("%d member ads sent before any border was wired", n)
	}

	learned := false
	rb.OnRegionMembership = func(got addr.IP, present bool) {
		if got == g && present {
			learned = true
		}
	}
	net.Sched.RunUntil(pimdm.DefaultQueryInterval + netsim.Second)
	if rb.Metrics.Get(metrics.CtrlMemberAd) == 0 {
		t.Fatal("border wired after Start never advertised")
	}
	if !learned {
		t.Fatal("border wired after Start never learned the region member")
	}
}
