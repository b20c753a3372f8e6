package unicast

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/parallel"
)

// Oracle computes every node's routing table from global topology knowledge,
// recomputing instantly when links change. It is the "ideal converged
// unicast routing" substrate: experiments that are about multicast behaviour
// rather than unicast convergence run over it.
//
// Recompute is an all-pairs computation: one Dijkstra per source node, each
// independent of the others, so the sources fan out across GOMAXPROCS
// workers (DESIGN.md §17). Everything a source needs lives in flat slices
// indexed by Node.ID; the only per-recompute shared state (live adjacency
// and the prefix→owners list) is built once, sequentially, and only read by
// the workers.
type Oracle struct {
	net     *netsim.Network
	tables  []*Table // indexed by Node.ID
	changed []bool   // changed[id]: tables[id] was rewritten this recompute
	// topoGen is the network's topology generation the tables reflect; a
	// link-change callback finding it current has nothing to recompute.
	topoGen uint64
	// recomputes counts full recomputations (tests pin the coalescing).
	recomputes int

	// Per-recompute shared inputs, rebuilt sequentially then read-only.
	adjStart []int32      // node id -> first index into adj; len nodes+1
	adj      []oraEdge    // live directed adjacencies in (iface, peer) order
	owners   []oraOwner   // up interface addresses, grouped by prefix
	groups   []oraPrefix  // one per destination prefix, in table order
	scratch  []oraScratch // one per worker
}

// oraEdge is one live adjacency: leaving through ifc reaches node to, whose
// interface on the shared link has address peer.
type oraEdge struct {
	to    int32
	delay int64
	ifc   *netsim.Iface
	peer  addr.IP
}

// oraOwner is one up, addressed interface inside a destination prefix.
type oraOwner struct {
	prefix addr.Prefix
	node   int32
	ifc    *netsim.Iface
}

// oraPrefix is a destination prefix and its owners' span in Oracle.owners.
type oraPrefix struct {
	prefix addr.Prefix
	lo, hi int32
}

// oraScratch is one worker's reusable Dijkstra state and entry buffer.
type oraScratch struct {
	dist       []int64 // -1 = not reached
	firstIface []*netsim.Iface
	firstHop   []addr.IP
	done       []bool
	heap       oraHeap
	entries    []tableEntry
}

// NewOracle builds tables for the current topology and subscribes to link
// changes on every node so tables stay current. One link change notifies
// every attached node; only the first callback per topology generation
// recomputes, the rest find the tables current.
func NewOracle(net *netsim.Network) *Oracle {
	o := &Oracle{
		net:     net,
		tables:  make([]*Table, len(net.Nodes)),
		changed: make([]bool, len(net.Nodes)),
	}
	for i, nd := range net.Nodes {
		o.tables[i] = &Table{}
		nd.OnLinkChange(func(*netsim.Iface) {
			if o.net.TopoGen() != o.topoGen {
				o.Recompute()
			}
		})
	}
	o.Recompute()
	return o
}

// RouterFor returns the node's Router view.
func (o *Oracle) RouterFor(nd *netsim.Node) Router { return o.tables[nd.ID] }

// oraItem is a Dijkstra work item: a node ID at a tentative distance.
type oraItem struct {
	dist int64
	id   int32
}

// oraHeap is a binary min-heap of work items ordered by (dist, id). Items
// are distinct under that order (a node is re-pushed only at a strictly
// smaller distance), so the pop sequence is fully determined.
type oraHeap []oraItem

func (h oraHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].id < h[j].id
}

func (h *oraHeap) push(it oraItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *oraHeap) pop() oraItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// Recompute rebuilds every node's table from the live topology. Each link's
// cost is its delay; LANs behave as a clique at the LAN's delay. Destination
// prefixes are the /24 subnets of every up interface (see LinkPrefix).
//
// Every table is written before any listener fires: the sources run in
// parallel, each rewriting only its own table, and a sequential pass in node
// order then notifies the tables that changed.
func (o *Oracle) Recompute() {
	o.topoGen = o.net.TopoGen()
	o.recomputes++
	nodes := o.net.Nodes
	o.buildAdjacency(nodes)
	o.buildPrefixes(nodes)

	w := min(parallel.Workers(0), len(nodes))
	for len(o.scratch) < w {
		o.scratch = append(o.scratch, oraScratch{})
	}
	for i := range o.scratch {
		o.scratch[i].size(len(nodes))
	}
	parallel.ForWorker(len(nodes), w, func(wk, i int) {
		s := &o.scratch[wk]
		s.dijkstra(o, int32(i))
		s.routes(o, int32(i))
		o.changed[i] = o.tables[i].replaceSorted(s.entries)
	})
	for i, t := range o.tables {
		if o.changed[i] {
			o.changed[i] = false
			t.NotifyChanged()
		}
	}
}

// buildAdjacency flattens the live topology into a CSR adjacency list,
// preserving the (node interface, link interface) visiting order the
// per-source Dijkstra tie-breaks depend on.
func (o *Oracle) buildAdjacency(nodes []*netsim.Node) {
	o.adjStart = append(o.adjStart[:0], 0)
	o.adj = o.adj[:0]
	for _, v := range nodes {
		for _, ifc := range v.Ifaces {
			if !ifc.Up() {
				continue
			}
			for _, peer := range ifc.Link.Ifaces {
				if peer == ifc || !peer.Up() {
					continue
				}
				o.adj = append(o.adj, oraEdge{
					to: int32(peer.Node.ID), delay: int64(ifc.Link.Delay), ifc: ifc, peer: peer.Addr,
				})
			}
		}
		o.adjStart = append(o.adjStart, int32(len(o.adj)))
	}
}

// buildPrefixes collects every up interface address under its /24 and
// groups the owners by prefix in table order (length desc, address asc).
// The stable sort keeps each prefix's owners in (node, interface) order,
// which decides exact ties between candidate routes.
func (o *Oracle) buildPrefixes(nodes []*netsim.Node) {
	o.owners = o.owners[:0]
	for _, nd := range nodes {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr == 0 || !ifc.Up() {
				continue
			}
			o.owners = append(o.owners, oraOwner{prefix: LinkPrefix(ifc.Addr), node: int32(nd.ID), ifc: ifc})
		}
	}
	slices.SortStableFunc(o.owners, func(a, b oraOwner) int {
		return comparePrefix(a.prefix, b.prefix)
	})
	o.groups = o.groups[:0]
	for lo := 0; lo < len(o.owners); {
		hi := lo + 1
		for hi < len(o.owners) && o.owners[hi].prefix == o.owners[lo].prefix {
			hi++
		}
		o.groups = append(o.groups, oraPrefix{prefix: o.owners[lo].prefix, lo: int32(lo), hi: int32(hi)})
		lo = hi
	}
}

// size fits the per-node slices to an n-node network.
func (s *oraScratch) size(n int) {
	if len(s.dist) == n {
		return
	}
	s.dist = make([]int64, n)
	s.firstIface = make([]*netsim.Iface, n)
	s.firstHop = make([]addr.IP, n)
	s.done = make([]bool, n)
}

// dijkstra runs shortest paths from src over the live adjacency, leaving
// each reached node's distance plus the src-local first-hop interface and
// first-hop neighbor address used to reach it.
func (s *oraScratch) dijkstra(o *Oracle, src int32) {
	for i := range s.dist {
		s.dist[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	s.heap = append(s.heap[:0], oraItem{id: src})
	for len(s.heap) > 0 {
		v := s.heap.pop().id
		if s.done[v] {
			continue
		}
		s.done[v] = true
		for _, e := range o.adj[o.adjStart[v]:o.adjStart[v+1]] {
			u := e.to
			nd := s.dist[v] + e.delay
			old := s.dist[u]
			if old < 0 || nd < old {
				s.dist[u] = nd
				if v == src {
					s.firstIface[u], s.firstHop[u] = e.ifc, e.peer
				} else {
					s.firstIface[u], s.firstHop[u] = s.firstIface[v], s.firstHop[v]
				}
				s.heap.push(oraItem{dist: nd, id: u})
			} else if nd == old && v == src && e.peer < s.firstHop[u] {
				// Tie between direct neighbors: deterministic pick by lower
				// neighbor address. Ties further out keep the first
				// discovered path (deterministic via heap order).
				s.firstIface[u], s.firstHop[u] = e.ifc, e.peer
			}
		}
	}
}

// routes fills s.entries with src's table in table order: per prefix, the
// reachable owner with the lowest metric, then lowest next hop, then
// earliest in owner order.
func (s *oraScratch) routes(o *Oracle, src int32) {
	s.entries = s.entries[:0]
	for _, g := range o.groups {
		best := Route{Metric: InfMetric}
		for _, own := range o.owners[g.lo:g.hi] {
			d := s.dist[own.node]
			if d < 0 {
				continue
			}
			var r Route
			if own.node == src {
				// Directly connected: route out the local interface in
				// the prefix (the first such is src's first owner entry).
				r = Route{Iface: own.ifc}
			} else {
				r = Route{Iface: s.firstIface[own.node], NextHop: s.firstHop[own.node], Metric: d}
			}
			if r.Metric < best.Metric ||
				(r.Metric == best.Metric && r.NextHop < best.NextHop) {
				best = r
			}
		}
		if best.Metric < InfMetric {
			s.entries = append(s.entries, tableEntry{prefix: g.prefix, route: best})
		}
	}
}
