package mospf

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// TestLSAFloodZeroAlloc pins the warm LSA wire path — marshal into the
// router's scratch, pooled transmit frame, delivery, into-decode, sequence
// check — at zero heap allocations per cycle. The flooded LSA carries the
// originator's current sequence number, so the receiver's duplicate check
// discards it after the decode: exactly the steady-state cost of a periodic
// re-origination that changed nothing. (See the core engine's twin for the
// warm-up rationale.)
func TestLSAFloodZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, netsim.Millisecond)

	dom := NewDomain([]*netsim.Node{na, nb})
	ra := New(na, dom)
	rb := New(nb, dom)
	ra.Start()
	rb.Start()
	g := addr.GroupForIndex(0)
	ra.LocalJoin(ia, g)
	net.Sched.RunUntil(2 * netsim.Second)
	if rb.MembershipRows() == 0 {
		t.Fatal("router b never installed a's membership LSA")
	}

	// Re-flood the already-installed LSA: same origin, same sequence.
	lsa := &membershipLSA{Origin: uint32(ra.self), Seq: ra.seq, Groups: nil}
	cycle := func() {
		ra.flood(lsa, nil)
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm LSA flood cycle: %.2f allocs, want 0", allocs)
	}
}
