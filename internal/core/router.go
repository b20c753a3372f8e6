package core

import (
	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/rpf"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Router is one PIM sparse-mode router instance.
type Router struct {
	Node    *netsim.Node
	Cfg     Config
	Unicast unicast.Router
	MFIB    *mfib.Table
	Metrics *metrics.Counters

	// Lifecycle carries the start/stop state, the epoch guard on every
	// timer, and the telemetry bus (see internal/engine).
	engine.Lifecycle

	// rpfc memoizes Unicast lookups for the per-packet paths (RPF checks,
	// register targeting, unicast relay), invalidated by table generation.
	rpfc *rpf.Cache

	// rpMap holds group -> ordered RP candidates (config plus host RPMap
	// messages); currentRP tracks which candidate the receiver side of this
	// router has joined toward (§3.9: "receivers only join toward a single
	// RP").
	rpMap     map[addr.IP][]addr.IP
	currentRP map[addr.IP]addr.IP
	// rpTimer fires RP fail-over for groups with local members (§3.9).
	rpTimer map[addr.IP]*netsim.Timer

	// neighbors is the PIM neighbor liveness learned from queries.
	neighbors engine.Neighbors

	// sptCount tracks §3.3 threshold switching per (S,G).
	sptCount map[mfib.Key]*sptCounter

	// Dynamic RP discovery (§4): flooded RP-report state.
	rpReportSeq  uint32
	rpReportSeqs map[addr.IP]uint32
	learnedRP    map[addr.IP]learnedMapping

	// enc is the reusable control-message encode workspace: every Node.Send
	// site appends envelope+body into enc.Buf and sends enc.Packet, so warm
	// periodic refresh allocates nothing. Safe because Send copies the
	// payload into its transmit frame before returning. regInner is the
	// second buffer the register path needs for the encapsulated inner
	// datagram (it is alive while enc.Buf is being built around it).
	enc      packet.Scratch
	regInner []byte
	// jpDec is the join/prune decode scratch; valid only within one
	// handleJoinPrune call (the record slices are recycled across calls).
	jpDec pimmsg.JoinPrune
	// jpBatch/jpMsg/rptScratch are the periodic-refresh batching scratches
	// (joinprune.go): destination batches, the outgoing message shell, and
	// the per-group rpt-prune source list. All reused across refreshes so
	// the steady-state batching path allocates nothing.
	jpBatch    []jpDest
	jpMsg      pimmsg.JoinPrune
	rptScratch []addr.IP

	// onChangeHooked: Unicast.OnChange registration is append-only, so the
	// callback is installed once and gated on started instead of being
	// re-registered per Start.
	onChangeHooked bool
}

// learnedMapping is a cached group→RP mapping from an RP-report.
type learnedMapping struct {
	rp      addr.IP
	expires netsim.Time
}

type sptCounter struct {
	windowStart netsim.Time
	packets     int
}

// New constructs a PIM-SM router bound to a node and a unicast routing view.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	cfg.fillDefaults()
	r := &Router{
		Lifecycle:    engine.New(nd),
		Node:         nd,
		Cfg:          cfg,
		Unicast:      uni,
		rpfc:         rpf.New(uni),
		MFIB:         mfib.NewTable(),
		Metrics:      metrics.New(),
		rpMap:        map[addr.IP][]addr.IP{},
		currentRP:    map[addr.IP]addr.IP{},
		rpTimer:      map[addr.IP]*netsim.Timer{},
		sptCount:     map[mfib.Key]*sptCounter{},
		rpReportSeqs: map[addr.IP]uint32{},
		learnedRP:    map[addr.IP]learnedMapping{},
	}
	for g, rps := range cfg.RPMapping {
		r.rpMap[g] = append([]addr.IP(nil), rps...)
	}
	return r
}

// Start registers packet handlers and begins the periodic machinery.
func (r *Router) Start() {
	if !r.Begin(r.MFIB.Len()) {
		return
	}
	r.Node.Handle(packet.ProtoPIM, netsim.HandlerFunc(r.handlePIM))
	r.Node.Handle(packet.ProtoPIMData, netsim.HandlerFunc(r.handlePIM))
	r.Node.Handle(packet.ProtoUDP, netsim.HandlerFunc(r.handleData))
	if !r.onChangeHooked {
		r.onChangeHooked = true
		r.Unicast.OnChange(func() {
			if r.Started() {
				r.routesChanged()
			}
		})
	}

	var refresh func()
	refresh = func() {
		r.maintain()
		r.periodicRefresh()
		r.After(r.Cfg.JoinPruneInterval, refresh)
	}
	// Deterministic per-router phase offset: desynchronized refreshes give
	// §3.7 join suppression a chance to work on shared LANs.
	offset := netsim.Time(uint64(r.Node.ID)*1000003) % (r.Cfg.JoinPruneInterval / 2)
	r.After(offset, refresh)

	var query func()
	query = func() {
		r.expireNeighbors()
		r.sendQueries()
		r.After(r.Cfg.QueryInterval, query)
	}
	r.After(0, query)

	var rpBeacon func()
	rpBeacon = func() {
		r.originateRPReach()
		r.originateRPReport()
		r.After(r.Cfg.RPReachInterval, rpBeacon)
	}
	r.After(0, rpBeacon)
}

// Stop detaches the router from its node and discards every piece of soft
// state: MFIB entries, neighbor liveness, joined-RP choices, learned
// RP-report mappings, SPT counters, and all pending timers. Scheduled
// closures from this incarnation are invalidated by the epoch bump, so none
// of them can touch the fresh maps. Static configuration, the metrics
// ledger, and the RP-report sequence number survive — resetting the
// sequence number would make peers discard the next incarnation's reports
// as replays.
func (r *Router) Stop() {
	if !r.End(r.MFIB.Len()) {
		return
	}
	r.Node.Handle(packet.ProtoPIM, nil)
	r.Node.Handle(packet.ProtoPIMData, nil)
	r.Node.Handle(packet.ProtoUDP, nil)
	for _, t := range r.rpTimer {
		t.Stop()
	}
	r.rpfc = rpf.New(r.Unicast)
	r.MFIB = mfib.NewTable()
	r.rpMap = map[addr.IP][]addr.IP{}
	r.currentRP = map[addr.IP]addr.IP{}
	r.rpTimer = map[addr.IP]*netsim.Timer{}
	r.neighbors.Reset()
	r.sptCount = map[mfib.Key]*sptCounter{}
	r.rpReportSeqs = map[addr.IP]uint32{}
	r.learnedRP = map[addr.IP]learnedMapping{}
	for g, rps := range r.Cfg.RPMapping {
		r.rpMap[g] = append([]addr.IP(nil), rps...)
	}
}

// Restart brings a stopped router back with no memory of its previous
// incarnation beyond static configuration: handlers re-register and state
// is rebuilt purely from periodic soft-state refresh (§2, §3.8).
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// SetRPMapping installs or replaces the ordered RP candidate list for a
// group (configuration path of §3, or host RPMap messages via LearnRPMap).
func (r *Router) SetRPMapping(g addr.IP, rps []addr.IP) {
	r.rpMap[g] = append([]addr.IP(nil), rps...)
}

// LearnRPMap merges a host-provided mapping (§3.1 fn. 9): unknown groups
// adopt the list; known groups keep their configuration.
func (r *Router) LearnRPMap(g addr.IP, rps []addr.IP) {
	if len(rps) == 0 {
		return
	}
	if _, ok := r.rpMap[g]; !ok {
		r.SetRPMapping(g, rps)
	}
}

// RPsFor returns the RP candidates for a group; an empty result means the
// group is not PIM sparse-mode supported (§3.1: "the router will assume
// that the group is not to be supported with PIM sparse mode"). Cached
// RP-report mappings count when no configured candidates exist.
func (r *Router) RPsFor(g addr.IP) []addr.IP {
	if rps := r.rpMap[g]; len(rps) > 0 {
		return rps
	}
	if lm, ok := r.learnedRP[g]; ok && r.Now() <= lm.expires {
		return []addr.IP{lm.rp}
	}
	return nil
}

// rpFor returns the RP this router's receiver side currently uses for g:
// a configured/host-learned candidate first, then a cached RP-report
// mapping (§4).
func (r *Router) rpFor(g addr.IP) (addr.IP, bool) {
	if rp, ok := r.currentRP[g]; ok {
		return rp, true
	}
	rps := r.rpMap[g]
	if len(rps) == 0 {
		if lm, ok := r.learnedRP[g]; ok && r.Now() <= lm.expires {
			r.currentRP[g] = lm.rp
			return lm.rp, true
		}
		return 0, false
	}
	r.currentRP[g] = rps[0]
	return rps[0], true
}

// IsRPFor reports whether this router owns an RP address for the group.
func (r *Router) IsRPFor(g addr.IP) bool {
	for _, rp := range r.rpMap[g] {
		if r.Node.OwnsAddr(rp) {
			return true
		}
	}
	return false
}

// sourceKey normalizes a source address to the granularity the router
// keeps (S,G) state at: the host address, or the /24 subnet when §4 source
// aggregation is enabled.
func (r *Router) sourceKey(s addr.IP) addr.IP {
	if r.Cfg.AggregateSources {
		return s & addr.Mask(24)
	}
	return s
}

// rpf resolves the RPF interface and upstream neighbor toward a target
// (source or RP). ok is false when no route exists. A zero upstream with
// ok=true means the target is directly connected (or is this node).
func (r *Router) rpf(target addr.IP) (iif *netsim.Iface, upstream addr.IP, ok bool) {
	if r.Node.OwnsAddr(target) {
		return nil, 0, true
	}
	rt, ok := r.rpfc.Lookup(target)
	if !ok {
		return nil, 0, false
	}
	up := rt.NextHop
	if up == 0 {
		// Directly connected subnet. If the target itself is a PIM
		// neighbor (an RP sharing our LAN), address it; if it is a host
		// (a directly-connected source), there is no upstream router.
		if r.neighbors.Live(rt.Iface.Index, target, r.Now()) {
			up = target
		}
	}
	return rt.Iface, up, true
}

// --- Neighbor discovery and DR election (§3.7) ---

func (r *Router) sendQueries() {
	q := pimmsg.Query{HoldTime: uint16(3*r.Cfg.QueryInterval/netsim.Second + 15)}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeQuery)
	r.enc.Buf = q.MarshalTo(r.enc.Buf)
	for _, ifc := range r.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlQuery)
	}
}

func (r *Router) handleQuery(in *netsim.Iface, src addr.IP, body []byte) {
	var q pimmsg.Query
	if err := pimmsg.UnmarshalQueryInto(&q, body); err != nil {
		return
	}
	now := r.Now()
	known, _ := r.neighbors.Hear(in.Index, src, now, now+netsim.Time(q.HoldTime)*netsim.Second)
	if !known && r.Telemetry() != nil {
		r.Emit(telemetry.Event{Kind: telemetry.NeighborUp, Iface: in.Index, Source: src})
	}
}

// expireNeighbors drops neighbors whose hold ran out, publishing each
// NeighborDown in (iface, address) order.
func (r *Router) expireNeighbors() {
	r.neighbors.Expire(r.Now(), func(iface int, a addr.IP) {
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{Kind: telemetry.NeighborDown, Iface: iface, Source: a})
		}
	})
}

// IsDR reports whether this router is the designated router on the
// interface: the highest address among itself and its live PIM neighbors
// ("the designated router is the one that takes responsibility for serving
// the members on the LAN").
func (r *Router) IsDR(ifc *netsim.Iface) bool {
	return !r.neighbors.Above(ifc.Index, ifc.Addr, r.Now())
}

// Neighbors returns the live PIM neighbors on an interface, sorted.
func (r *Router) Neighbors(ifc *netsim.Iface) []addr.IP { return r.neighbors.List(ifc.Index, r.Now()) }

// --- PIM message dispatch ---

func (r *Router) handlePIM(in *netsim.Iface, pkt *packet.Packet) {
	// Unicast PIM packets (registers) not addressed to us are forwarded
	// toward their destination like any unicast datagram.
	if !pkt.Dst.IsMulticast() && !r.Node.OwnsAddr(pkt.Dst) {
		r.forwardUnicast(pkt)
		return
	}
	typ, body, err := pimmsg.Open(pkt.Payload)
	if err != nil {
		return
	}
	switch typ {
	case pimmsg.TypeQuery:
		r.handleQuery(in, pkt.Src, body)
	case pimmsg.TypeJoinPrune:
		r.handleJoinPrune(in, body)
	case pimmsg.TypeRegister:
		r.handleRegister(in, pkt, body)
	case pimmsg.TypeRPReach:
		r.handleRPReach(in, body)
	case pimmsg.TypeRPReport:
		r.handleRPReport(in, body)
	}
}

// forwardUnicast relays a unicast packet one hop along the unicast route.
func (r *Router) forwardUnicast(pkt *packet.Packet) {
	rt, ok := r.rpfc.Lookup(pkt.Dst)
	if !ok {
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	nextHop := rt.NextHop
	if nextHop == 0 {
		nextHop = pkt.Dst
	}
	r.Node.Send(rt.Iface, fwd, nextHop)
}

// StateCount returns the number of multicast forwarding entries — the
// "state" axis of the paper's overhead comparison.
func (r *Router) StateCount() int { return r.MFIB.Len() }

// NeighborCount returns the number of live PIM neighbor entries across all
// interfaces — the recovery tests' stale-neighbor probe: after a peer's
// crash and hold-time expiry it must drop, and after the peer's restart it
// must return to the interface's true degree.
func (r *Router) NeighborCount() int { return r.neighbors.Count(r.Now()) }

// HandlePIMPacket is the exported PIM control entry point, used by border
// routers (internal/border) that multiplex sparse- and dense-mode protocol
// instances over one node's interfaces.
func (r *Router) HandlePIMPacket(in *netsim.Iface, pkt *packet.Packet) { r.handlePIM(in, pkt) }

// HandleDataPacket is the exported data-plane entry point (see
// HandlePIMPacket).
func (r *Router) HandleDataPacket(in *netsim.Iface, pkt *packet.Packet) { r.handleData(in, pkt) }

// HandleBorderData processes a multicast data packet that entered from a
// dense-mode region at a border router (§4 interoperation): the border acts
// as the region's designated router, registering the region-internal source
// toward the RP(s) and forwarding over any sparse-mode state whose incoming
// interface faces the region.
func (r *Router) HandleBorderData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	if r.IsDR(in) {
		r.senderSide(in, pkt.Src, g, pkt)
	}
	r.forwardData(in, pkt)
}
