package unicast

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// refOracle is the map-based all-pairs oracle the slice-indexed Oracle
// replaced, kept as the differential reference: a per-source Dijkstra over
// node-keyed maps with container/heap, a prefix→owners map, and
// Table.Replace sorting each source's entries. It recomputes on every
// link-change callback, so one change on a k-station link recomputes k
// times, and it notifies each table right after writing it.
type refOracle struct {
	net    *netsim.Network
	tables map[*netsim.Node]*Table
}

func newRefOracle(net *netsim.Network) *refOracle {
	o := &refOracle{net: net, tables: map[*netsim.Node]*Table{}}
	for _, nd := range net.Nodes {
		o.tables[nd] = &Table{}
		nd.OnLinkChange(func(*netsim.Iface) { o.Recompute() })
	}
	o.Recompute()
	return o
}

type refItem struct {
	node *netsim.Node
	dist int64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node.ID < h[j].node.ID
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (o *refOracle) Recompute() {
	prefixes := map[addr.Prefix][]*netsim.Node{}
	for _, nd := range o.net.Nodes {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr == 0 || !ifc.Up() {
				continue
			}
			p := LinkPrefix(ifc.Addr)
			prefixes[p] = append(prefixes[p], nd)
		}
	}
	for _, src := range o.net.Nodes {
		dist, firstIface, firstHop := o.dijkstra(src)
		entries := map[addr.Prefix]Route{}
		for p, owners := range prefixes {
			best := Route{Metric: InfMetric}
			for _, own := range owners {
				d, ok := dist[own]
				if !ok {
					continue
				}
				var r Route
				if own == src {
					var ifc *netsim.Iface
					for _, c := range src.Ifaces {
						if c.Up() && c.Addr != 0 && p.Contains(c.Addr) {
							ifc = c
							break
						}
					}
					if ifc == nil {
						continue
					}
					r = Route{Iface: ifc, NextHop: 0, Metric: 0}
				} else {
					r = Route{Iface: firstIface[own], NextHop: firstHop[own], Metric: d}
				}
				if r.Metric < best.Metric ||
					(r.Metric == best.Metric && r.NextHop < best.NextHop) {
					best = r
				}
			}
			if best.Metric < InfMetric {
				entries[p] = best
			}
		}
		if o.tables[src].Replace(entries) {
			o.tables[src].NotifyChanged()
		}
	}
}

func (o *refOracle) dijkstra(src *netsim.Node) (map[*netsim.Node]int64, map[*netsim.Node]*netsim.Iface, map[*netsim.Node]addr.IP) {
	dist := map[*netsim.Node]int64{src: 0}
	firstIface := map[*netsim.Node]*netsim.Iface{}
	firstHop := map[*netsim.Node]addr.IP{}
	done := map[*netsim.Node]bool{}
	h := &refHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, ifc := range v.Ifaces {
			if !ifc.Up() {
				continue
			}
			for _, peer := range ifc.Link.Ifaces {
				if peer == ifc || !peer.Up() {
					continue
				}
				u := peer.Node
				nd := dist[v] + int64(ifc.Link.Delay)
				old, seen := dist[u]
				better := !seen || nd < old
				if !better && nd == old && v != src {
					continue
				}
				if better {
					dist[u] = nd
					if v == src {
						firstIface[u] = ifc
						firstHop[u] = peer.Addr
					} else {
						firstIface[u] = firstIface[v]
						firstHop[u] = firstHop[v]
					}
					heap.Push(h, refItem{node: u, dist: nd})
				} else if nd == old && v == src {
					if peer.Addr < firstHop[u] {
						firstIface[u] = ifc
						firstHop[u] = peer.Addr
					}
				}
			}
		}
	}
	return dist, firstIface, firstHop
}

// randomOracleNet builds a random network exercising every tie-break the
// oracle has: point-to-point links (a few unnumbered on one side), LANs
// whose router and host addresses all fall in the one /24 10.1.0.0/24 and
// collide across LANs (multi-owner prefixes, like stub LANs of routers 256
// apart), delays drawn from {1,2} ms so equal-cost paths abound, and one
// unlinked interface. It returns the links and interfaces to flip.
func randomOracleNet(rng *rand.Rand) (*netsim.Network, []*netsim.Link, []*netsim.Iface) {
	net := netsim.NewNetwork()
	n := 3 + rng.Intn(14)
	routers := make([]*netsim.Node, n)
	for i := range routers {
		routers[i] = net.AddNode(fmt.Sprintf("r%d", i))
	}
	delay := func() netsim.Time { return netsim.Time(1+rng.Intn(2)) * netsim.Millisecond }
	k := 0
	p2p := func(a, b *netsim.Node) {
		ipA := addr.V4(10, 200, byte(k), 1)
		if rng.Intn(8) == 0 {
			ipA = 0
		}
		net.Connect(net.AddIface(a, ipA), net.AddIface(b, addr.V4(10, 200, byte(k), 2)), delay())
		k++
	}
	for i := 1; i < n; i++ {
		p2p(routers[i], routers[rng.Intn(i)])
	}
	for e := rng.Intn(n); e > 0; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			p2p(routers[a], routers[b])
		}
	}
	for lans := 1 + rng.Intn(4); lans > 0; lans-- {
		var ifs []*netsim.Iface
		for _, r := range rng.Perm(n)[:min(n, 2+rng.Intn(3))] {
			ifs = append(ifs, net.AddIface(routers[r], addr.V4(10, 1, 0, byte(250+rng.Intn(4)))))
		}
		for h := rng.Intn(3); h > 0; h-- {
			host := net.AddNode("h")
			ifs = append(ifs, net.AddIface(host, addr.V4(10, 1, 0, byte(1+rng.Intn(3)))))
		}
		net.ConnectLAN(delay(), ifs...)
	}
	net.AddIface(routers[0], addr.V4(10, 2, 0, 1)) // never linked
	var ifaces []*netsim.Iface
	for _, nd := range net.Nodes {
		ifaces = append(ifaces, nd.Ifaces...)
	}
	return net, net.Links, ifaces
}

// flipRandom toggles one random link or interface, as SetLinkUp or
// SetIfaceUp.
func flipRandom(rng *rand.Rand, net *netsim.Network, links []*netsim.Link, ifaces []*netsim.Iface) {
	if rng.Intn(2) == 0 {
		l := links[rng.Intn(len(links))]
		net.SetLinkUp(l, !l.Up())
		return
	}
	ifc := ifaces[rng.Intn(len(ifaces))]
	up := ifc.Up()
	if ifc.Link == nil || !ifc.Link.Up() {
		up = rng.Intn(2) == 0 // the iface's own state is not observable
	}
	net.SetIfaceUp(ifc, !up)
}

// countNotify subscribes a per-node counter to each table.
func countNotify(net *netsim.Network, table func(*netsim.Node) *Table) []int {
	counts := make([]int, len(net.Nodes))
	for i, nd := range net.Nodes {
		table(nd).OnChange(func() { counts[i]++ })
	}
	return counts
}

// compareOracles fails unless every node's table holds the same entries at
// the same generation in both oracles, with the same listener firings.
func compareOracles(t *testing.T, step string, net *netsim.Network, o *Oracle, ref *refOracle, got, want []int) {
	t.Helper()
	for i, nd := range net.Nodes {
		a, b := o.RouterFor(nd).(*Table), ref.tables[nd]
		if !slices.Equal(a.entries, b.entries) {
			t.Fatalf("%s: node %s table differs\noracle:\n%sreference:\n%s", step, nd.Name, a, b)
		}
		if a.Gen() != b.Gen() {
			t.Fatalf("%s: node %s gen %d, reference %d", step, nd.Name, a.Gen(), b.Gen())
		}
		if got[i] != want[i] {
			t.Fatalf("%s: node %s notified %d times, reference %d", step, nd.Name, got[i], want[i])
		}
	}
}

// TestOracleMatchesReference drives random networks through random link and
// interface flips and compares every node's table with the map-based
// reference after each change.
func TestOracleMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, links, ifaces := randomOracleNet(rng)
		ref := newRefOracle(net)
		o := NewOracle(net)
		want := countNotify(net, func(nd *netsim.Node) *Table { return ref.tables[nd] })
		got := countNotify(net, func(nd *netsim.Node) *Table { return o.RouterFor(nd).(*Table) })
		compareOracles(t, fmt.Sprintf("seed %d initial", seed), net, o, ref, got, want)
		for step := 0; step < 40; step++ {
			flipRandom(rng, net, links, ifaces)
			compareOracles(t, fmt.Sprintf("seed %d step %d", seed, step), net, o, ref, got, want)
		}
	}
}

// oracleSnapshot renders every table with interfaces named, so snapshots
// from two separately built networks compare.
func oracleSnapshot(net *netsim.Network, o *Oracle) string {
	s := ""
	for _, nd := range net.Nodes {
		tb := o.RouterFor(nd).(*Table)
		s += fmt.Sprintf("%s gen %d\n", nd.Name, tb.Gen())
		for _, e := range tb.entries {
			s += fmt.Sprintf("  %v %v via %v metric %d\n", e.prefix, e.route.Iface, e.route.NextHop, e.route.Metric)
		}
	}
	return s
}

// TestOracleWorkerCountInvisible replays the same random flip sequence at
// GOMAXPROCS 1 and 4: the parallel fan-out must not change a table.
func TestOracleWorkerCountInvisible(t *testing.T) {
	run := func(procs int, seed int64) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rng := rand.New(rand.NewSource(seed))
		net, links, ifaces := randomOracleNet(rng)
		o := NewOracle(net)
		snaps := []string{oracleSnapshot(net, o)}
		for step := 0; step < 30; step++ {
			flipRandom(rng, net, links, ifaces)
			snaps = append(snaps, oracleSnapshot(net, o))
		}
		return snaps
	}
	for seed := int64(1); seed <= 10; seed++ {
		one, four := run(1, seed), run(4, seed)
		for i := range one {
			if one[i] != four[i] {
				t.Fatalf("seed %d snapshot %d differs:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", seed, i, one[i], four[i])
			}
		}
	}
}

// TestOracleCoalescesLinkChange: one SetLinkUp on a point-to-point link and
// one SetIfaceUp on a 3-station LAN each recompute once, although every
// attached node's link-change callback fires; tables and listener firings
// match the reference, which recomputes per callback. An explicit
// Recompute still always recomputes.
func TestOracleCoalescesLinkChange(t *testing.T) {
	net, nodes := buildLine(3, netsim.Millisecond)
	var lan []*netsim.Iface
	for i, nd := range nodes {
		lan = append(lan, net.AddIface(nd, addr.V4(10, 1, 0, byte(i+1))))
	}
	net.ConnectLAN(2*netsim.Millisecond, lan...)
	ref := newRefOracle(net)
	o := NewOracle(net)
	want := countNotify(net, func(nd *netsim.Node) *Table { return ref.tables[nd] })
	got := countNotify(net, func(nd *netsim.Node) *Table { return o.RouterFor(nd).(*Table) })
	for _, step := range []struct {
		name   string
		change func()
	}{
		{"p2p down", func() { net.SetLinkUp(net.Links[0], false) }},
		{"p2p up", func() { net.SetLinkUp(net.Links[0], true) }},
		{"lan iface down", func() { net.SetIfaceUp(lan[1], false) }},
		{"lan iface up", func() { net.SetIfaceUp(lan[1], true) }},
	} {
		before := o.recomputes
		step.change()
		if n := o.recomputes - before; n != 1 {
			t.Errorf("%s: %d recomputes, want 1", step.name, n)
		}
		compareOracles(t, step.name, net, o, ref, got, want)
	}
	before := o.recomputes
	o.Recompute()
	if o.recomputes != before+1 {
		t.Error("explicit Recompute was skipped")
	}
}
