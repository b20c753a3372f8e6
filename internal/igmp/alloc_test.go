package igmp

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// TestQueryZeroAlloc pins the warm IGMP query wire path — marshal into the
// querier's scratch, pooled transmit frame, delivery, decode on a memberless
// host — at zero heap allocations per cycle. (See the core engine's twin
// for the warm-up rationale; a host with members is excluded deliberately,
// since its response path legitimately allocates report timers.)
func TestQueryZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	nr := net.AddNode("r")
	nh := net.AddNode("h")
	ir := net.AddIface(nr, addr.V4(10, 0, 0, 1))
	ih := net.AddIface(nh, addr.V4(10, 0, 0, 9))
	net.ConnectLAN(netsim.Millisecond, ir, ih)

	q := NewQuerier(nr)
	q.Start()
	NewHost(nh, ih)
	net.Sched.RunUntil(2 * netsim.Second)

	cycle := func() {
		q.query()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm query cycle: %.2f allocs, want 0", allocs)
	}
}

// TestReportZeroAlloc pins the host's unsolicited-report wire path for an
// already-joined group at zero heap allocations: the report is re-marshalled
// into the host's scratch and carried by a pooled frame to the querier,
// whose membership entry already exists and is only refreshed.
func TestReportZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	nr := net.AddNode("r")
	nh := net.AddNode("h")
	ir := net.AddIface(nr, addr.V4(10, 0, 0, 1))
	ih := net.AddIface(nh, addr.V4(10, 0, 0, 9))
	net.ConnectLAN(netsim.Millisecond, ir, ih)

	q := NewQuerier(nr)
	q.Start()
	h := NewHost(nh, ih)
	g := addr.GroupForIndex(0)
	h.Join(g)
	net.Sched.RunUntil(2 * netsim.Second)
	if !q.HasMember(ir, g) {
		t.Fatal("querier never learned the membership")
	}

	cycle := func() {
		h.sendReport(g)
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm report cycle: %.2f allocs, want 0", allocs)
	}
}
