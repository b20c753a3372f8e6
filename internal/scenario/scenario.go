// Package scenario assembles runnable simulations: it maps a topology.Graph
// onto netsim routers and links, hangs stub LANs with IGMP hosts off chosen
// routers, plugs in one of the three unicast routing substrates, and deploys
// a multicast protocol on every router. The experiment harnesses
// (cmd/pimsim, bench_test.go) and the examples all build on it.
//
// Address plan (matches unicast.LinkPrefix's /24-per-link convention):
//
//	backbone link i:  10.(200+i/256).(i%256).0/24, endpoints .1 and .2
//	host LAN at r:    10.100.r.0/24, router at .254, hosts at .1, .2, ...
package scenario

import (
	"encoding/binary"
	"fmt"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/topology"
	"pim/internal/unicast"
)

// UnicastMode selects the routing substrate beneath the multicast protocol.
type UnicastMode int

const (
	// UseOracle computes all tables from global knowledge (default).
	UseOracle UnicastMode = iota
	// UseDV runs the RIP-like distance-vector protocol on every router.
	UseDV
	// UseLS runs the OSPF-like link-state protocol on every router.
	UseLS
)

// DelayUnit converts the dimensionless edge delays of topology.Graph into
// simulated time.
const DelayUnit = netsim.Millisecond

// Sim is a wired simulation.
type Sim struct {
	Net   *netsim.Network
	Graph *topology.Graph
	// Routers[i] is the router for graph node i.
	Routers []*netsim.Node
	// EdgeLinks[e] is the netsim link realizing graph edge e.
	EdgeLinks []*netsim.Link
	// HostLANs[i] is router i's stub LAN (nil until a host is added).
	HostLANs []*netsim.Link
	// Hosts[i] are the IGMP hosts attached to router i.
	Hosts [][]*igmp.Host

	Mode   UnicastMode
	oracle *unicast.Oracle
	dv     []*unicast.DV
	ls     []*unicast.LS

	// owner maps every node back to the graph vertex whose router it is or
	// hangs off (hosts and LAN anchors map to their router), so sharding can
	// place entire stub LANs with their router.
	owner map[*netsim.Node]int
	// shardAsn is the topology partition in effect after AutoShardN, indexed
	// by graph vertex; nil while unsharded.
	shardAsn []int
}

// Build wires the graph into a network. Unicast routing is attached by
// FinishUnicast after hosts are added (the oracle needs the final
// interface set).
func Build(g *topology.Graph) *Sim {
	net := netsim.NewNetwork()
	s := &Sim{
		Net:       net,
		Graph:     g,
		Routers:   make([]*netsim.Node, g.N()),
		EdgeLinks: make([]*netsim.Link, g.M()),
		HostLANs:  make([]*netsim.Link, g.N()),
		Hosts:     make([][]*igmp.Host, g.N()),
		owner:     make(map[*netsim.Node]int),
	}
	for i := range s.Routers {
		s.Routers[i] = net.AddNode(fmt.Sprintf("r%d", i))
		s.owner[s.Routers[i]] = i
	}
	for ei, e := range g.Edges() {
		a := net.AddIface(s.Routers[e.A], linkAddr(ei, 1))
		b := net.AddIface(s.Routers[e.B], linkAddr(ei, 2))
		s.EdgeLinks[ei] = net.Connect(a, b, netsim.Time(e.Delay)*DelayUnit)
	}
	return s
}

func linkAddr(edge, side int) addr.IP {
	return addr.V4(10, byte(200+edge/256), byte(edge%256), byte(side))
}

// HostLANAddr returns the address of the h-th host on router r's stub LAN.
func HostLANAddr(r, h int) addr.IP { return addr.V4(10, 100, byte(r), byte(h+1)) }

// RouterLANAddr returns router r's address on its stub LAN.
func RouterLANAddr(r int) addr.IP { return addr.V4(10, 100, byte(r), 254) }

// AddHost attaches a new IGMP host to router r's stub LAN, creating the LAN
// on first use. Must be called before FinishUnicast.
func (s *Sim) AddHost(r int) *igmp.Host {
	nd := s.Net.AddNode(fmt.Sprintf("h%d.%d", r, len(s.Hosts[r])))
	s.placeWithRouter(nd, r)
	hif := s.Net.AddIface(nd, HostLANAddr(r, len(s.Hosts[r])))
	if s.HostLANs[r] == nil {
		rif := s.Net.AddIface(s.Routers[r], RouterLANAddr(r))
		// A third, always-silent interface makes the stub a true LAN so
		// §3.7 semantics (multicast join/prune visibility) apply uniformly.
		anchorNode := s.Net.AddNode(fmt.Sprintf("lan%d", r))
		s.placeWithRouter(anchorNode, r)
		anchor := s.Net.AddIface(anchorNode, 0)
		s.HostLANs[r] = s.Net.ConnectLAN(DelayUnit, rif, hif, anchor)
	} else {
		// Join the existing LAN.
		lan := s.HostLANs[r]
		hif.Link = lan
		lan.Ifaces = append(lan.Ifaces, hif)
	}
	h := igmp.NewHost(nd, hif)
	s.Hosts[r] = append(s.Hosts[r], h)
	return h
}

// placeWithRouter records that nd hangs off graph vertex r and, when the
// network is already sharded, pins it to r's shard so stub LANs never span
// shard boundaries.
func (s *Sim) placeWithRouter(nd *netsim.Node, r int) {
	s.owner[nd] = r
	if s.shardAsn != nil {
		s.Net.SetNodeShard(nd, s.shardAsn[r])
	}
}

// AutoShardN partitions the topology into k shards (topology.Partition:
// greedy min-cut preferring high-delay links as boundaries) and switches the
// network to sharded parallel execution. Hosts and LAN anchors — existing
// and future — are placed on their router's shard, so only backbone
// point-to-point links ever cross shards. Call after Build and before any
// events are scheduled (i.e. before FinishUnicast starts DV/LS); a k of 1
// or less leaves the network sequential. The partition is a deterministic
// function of the graph and k, which the shard-determinism gates rely on.
func (s *Sim) AutoShardN(k int) {
	if k <= 1 || s.Net.Sharded() {
		return
	}
	if k > s.Graph.N() {
		k = s.Graph.N()
	}
	s.shardAsn = topology.Partition(s.Graph, k)
	s.Net.Shard(k, func(nd *netsim.Node) int {
		r, ok := s.owner[nd]
		if !ok {
			panic("scenario: node with unknown owner at shard time: " + nd.Name)
		}
		return s.shardAsn[r]
	})
}

// FinishUnicast attaches the chosen unicast substrate. For DV and LS the
// caller must afterwards run the scheduler long enough to converge (3×
// period is ample on these diameters).
func (s *Sim) FinishUnicast(mode UnicastMode) {
	s.Mode = mode
	switch mode {
	case UseOracle:
		s.oracle = unicast.NewOracle(s.Net)
	case UseDV:
		for _, nd := range s.Routers {
			d := unicast.NewDV(nd)
			d.Start()
			s.dv = append(s.dv, d)
		}
	case UseLS:
		for _, nd := range s.Routers {
			l := unicast.NewLS(nd)
			l.Start()
			s.ls = append(s.ls, l)
		}
	}
}

// UnicastFor returns router i's unicast routing view.
func (s *Sim) UnicastFor(i int) unicast.Router {
	switch s.Mode {
	case UseDV:
		return s.dv[i].Table()
	case UseLS:
		return s.ls[i].Table()
	default:
		return s.oracle.RouterFor(s.Routers[i])
	}
}

// ConvergenceTime returns how long the substrate needs before multicast
// protocols should start.
func (s *Sim) ConvergenceTime() netsim.Time {
	switch s.Mode {
	case UseDV:
		return 3 * unicast.DVDefaultPeriod
	case UseLS:
		return 2 * unicast.LSDefaultRefresh
	default:
		return 0
	}
}

// RouterAddr returns router i's primary (first-interface) address, used as
// its identifier and as an RP address when i hosts a rendezvous point.
func (s *Sim) RouterAddr(i int) addr.IP { return s.Routers[i].Addr() }

// SendData injects one multicast data packet from the host onto its LAN.
// The first eight payload bytes carry the send timestamp so receivers can
// measure delivery latency (see Latency).
func SendData(h *igmp.Host, g addr.IP, size int) {
	if size < 8 {
		size = 8
	}
	payload := make([]byte, size)
	binary.BigEndian.PutUint64(payload, uint64(h.Node.Sched().Now()))
	pkt := packet.New(h.Iface.Addr, g, packet.ProtoUDP, payload)
	h.Node.Send(h.Iface, pkt, 0)
}

// Latency extracts the one-way delay of a data packet sent with SendData.
func Latency(now netsim.Time, pkt *packet.Packet) (netsim.Time, bool) {
	if len(pkt.Payload) < 8 {
		return 0, false
	}
	sent := netsim.Time(binary.BigEndian.Uint64(pkt.Payload))
	if sent < 0 || sent > now {
		return 0, false
	}
	return now - sent, true
}

// Run advances the simulation by d.
func (s *Sim) Run(d netsim.Time) { s.Net.Sched.RunUntil(s.Net.Sched.Now() + d) }
