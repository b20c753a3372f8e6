package dvmrp

import (
	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/rpf"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Config carries the protocol parameters.
type Config struct {
	// PruneLifetime bounds how long a pruned branch stays pruned before it
	// grows back (the paper's periodic-rebroadcast cost).
	PruneLifetime netsim.Time
	// ProbeInterval paces neighbor probes; an interface with no probing
	// neighbor is a leaf subnet subject to truncated broadcast.
	ProbeInterval netsim.Time
	// GraftRetry is the initial graft retransmission interval: grafts are
	// acknowledged, and an unacked graft is re-sent with doubling backoff
	// (capped at 8x) until the ack arrives or the branch stops wanting
	// traffic.
	GraftRetry netsim.Time
}

// Defaults. RFC 1075 uses ~2 hours for prunes; experiments scale it down so
// the grow-back behaviour is observable (configurable per run).
const (
	DefaultPruneLifetime = 120 * netsim.Second
	DefaultProbeInterval = 30 * netsim.Second
	DefaultGraftRetry    = 3 * netsim.Second
)

// infiniteExpiry keeps default-on oifs alive until explicitly pruned.
const infiniteExpiry = netsim.Time(1) << 60

// Router is one DVMRP router instance.
type Router struct {
	Node    *netsim.Node
	Cfg     Config
	Unicast unicast.Router
	MFIB    *mfib.Table
	Metrics *metrics.Counters

	// Lifecycle carries the start/stop state, the epoch guard on every
	// timer, and the telemetry bus (see internal/engine).
	engine.Lifecycle

	// rpfc memoizes the per-packet reverse-path lookup, invalidated by
	// unicast table generation.
	rpfc *rpf.Cache

	// neighbors is the neighbor liveness learned from probes.
	neighbors engine.Neighbors
	// members is the local membership from IGMP.
	members engine.Members
	// prunedUpstream[key] = true when we sent a prune toward the source and
	// have not grafted back.
	prunedUpstream map[mfib.Key]bool
	// pendingGrafts holds the retransmission state of unacked grafts.
	pendingGrafts map[mfib.Key]*pendingGraft

	// enc is the reusable control-message encode workspace (see
	// core.Router.enc): safe because Node.Send copies the payload into its
	// transmit frame before returning.
	enc packet.Scratch
}

// pendingGraft tracks one unacked graft awaiting retransmission.
type pendingGraft struct {
	timer   *netsim.Timer
	backoff netsim.Time
}

// New builds a DVMRP router.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	if cfg.PruneLifetime == 0 {
		cfg.PruneLifetime = DefaultPruneLifetime
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.GraftRetry == 0 {
		cfg.GraftRetry = DefaultGraftRetry
	}
	return &Router{
		Node: nd, Cfg: cfg, Unicast: uni,
		Lifecycle:      engine.New(nd),
		rpfc:           rpf.New(uni),
		MFIB:           mfib.NewTable(),
		Metrics:        metrics.New(),
		prunedUpstream: map[mfib.Key]bool{},
		pendingGrafts:  map[mfib.Key]*pendingGraft{},
	}
}

// Start registers handlers and begins probing.
func (r *Router) Start() {
	if !r.Begin(r.MFIB.Len()) {
		return
	}
	r.Node.Handle(packet.ProtoDVMRP, netsim.HandlerFunc(r.handleCtrl))
	r.Node.Handle(packet.ProtoUDP, netsim.HandlerFunc(r.handleData))
	var probe func()
	probe = func() {
		r.neighbors.Expire(r.Now(), nil)
		r.sendProbes()
		r.After(r.Cfg.ProbeInterval, probe)
	}
	r.After(0, probe)
}

// Stop detaches the router and discards all soft state: forwarding entries,
// neighbor liveness, local membership, prune markers, and graft
// retransmission timers. Scheduled closures die via the epoch bump.
func (r *Router) Stop() {
	if !r.End(r.MFIB.Len()) {
		return
	}
	r.Node.Handle(packet.ProtoDVMRP, nil)
	r.Node.Handle(packet.ProtoUDP, nil)
	for _, p := range r.pendingGrafts {
		p.timer.Stop()
	}
	r.rpfc = rpf.New(r.Unicast)
	r.MFIB = mfib.NewTable()
	r.neighbors.Reset()
	r.members.Reset()
	r.prunedUpstream = map[mfib.Key]bool{}
	r.pendingGrafts = map[mfib.Key]*pendingGraft{}
}

// Restart brings a stopped router back empty; broadcast-and-prune state
// rebuilds from the data packets themselves.
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// StateCount returns the number of multicast forwarding entries.
func (r *Router) StateCount() int { return r.MFIB.Len() }

// NeighborCount returns the number of live DVMRP neighbor entries across
// all interfaces — the recovery tests' stale-neighbor probe.
func (r *Router) NeighborCount() int { return r.neighbors.Count(r.Now()) }

// --- Membership (from IGMP) ---

// LocalJoin records a member and grafts pruned branches back (§1.1 graft).
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	r.members.Add(ifc.Index, g)
	// Splice this interface back into every active source's tree.
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if e.Wildcard || e.Key.RPBit {
			return
		}
		e.AddLocalOIF(ifc)
		if r.prunedUpstream[e.Key] {
			r.sendCtrlUpstream(e, TypeGraft, 0)
			delete(r.prunedUpstream, e.Key)
		}
	})
}

// LocalLeave removes a member; sources flowing to a now-dead branch get
// pruned.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	r.members.Remove(ifc.Index, g)
	now := r.Now()
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if e.Wildcard || e.Key.RPBit {
			return
		}
		if o := e.OIF(ifc.Index); o != nil && o.LocalMember {
			o.LocalMember = false
			e.Touch()
			if !o.Live(now) {
				e.RemoveOIF(ifc)
			}
		}
		r.maybePruneUpstream(e)
	})
}

// --- Neighbor probes ---

func (r *Router) sendProbes() {
	m := Message{Type: TypeProbe}
	r.enc.Buf = m.MarshalTo(r.enc.Buf[:0])
	for _, ifc := range r.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoDVMRP, 1), 0)
	}
}

// neighborUp re-evaluates existing (S,G) entries when an adjacency forms on
// ifc. A restarted transit router that receives data before its downstream
// neighbor's first probe classifies ifc as a leaf, builds entries that omit
// it, and prunes upstream; nothing ever grows the branch back because the
// downstream (which kept forwarding) has no pruned state to graft from. The
// truncated-broadcast contract (§1.1) says a non-leaf interface carries the
// flow until its neighbor prunes — so on adjacency-up, restore the branch.
func (r *Router) neighborUp(ifc *netsim.Iface) {
	if !ifc.Up() || ifc.Addr == 0 {
		return
	}
	now := r.Now()
	r.MFIB.ForEach(func(e *mfib.Entry) {
		if e.Wildcard || e.Key.RPBit {
			return
		}
		if e.IIF == ifc {
			return
		}
		if o := e.OIF(ifc.Index); o != nil && o.Live(now) {
			return
		}
		e.AddOIF(ifc, infiniteExpiry)
		if r.prunedUpstream[e.Key] {
			r.sendCtrlUpstream(e, TypeGraft, 0)
			delete(r.prunedUpstream, e.Key)
		}
	})
}

// --- Control messages ---

func (r *Router) handleCtrl(in *netsim.Iface, pkt *packet.Packet) {
	var msg Message
	if err := UnmarshalInto(&msg, pkt.Payload); err != nil {
		return
	}
	m := &msg
	switch m.Type {
	case TypeProbe:
		now := r.Now()
		if _, live := r.neighbors.Hear(in.Index, pkt.Src, now, now+3*r.Cfg.ProbeInterval); !live {
			r.neighborUp(in)
		}
	case TypePrune:
		r.handlePrune(in, m)
	case TypeGraft:
		r.handleGraft(in, pkt.Src, m)
	case TypeGraftAck:
		// The graft reached upstream: cancel its retransmission timer.
		key := mfib.Key{Source: m.Source, Group: m.Group}
		if p := r.pendingGrafts[key]; p != nil {
			p.timer.Stop()
			delete(r.pendingGrafts, key)
		}
	}
}

// handlePrune removes the downstream interface and grows it back after the
// prune lifetime.
func (r *Router) handlePrune(in *netsim.Iface, m *Message) {
	e := r.MFIB.SG(m.Source, m.Group)
	if e == nil {
		return
	}
	if r.members.Has(in.Index, m.Group) {
		return // members still present on that subnet: ignore stray prune
	}
	e.RemoveOIF(in)
	lifetime := netsim.Time(m.Lifetime) * netsim.Second
	key := e.Key
	r.After(lifetime, func() {
		// Grow back (§1.1): the branch resumes broadcast until re-pruned.
		if cur := r.MFIB.Get(key); cur != nil && in.Up() {
			cur.AddOIF(in, infiniteExpiry)
			delete(r.prunedUpstream, key)
		}
	})
	r.maybePruneUpstream(e)
}

// handleGraft re-attaches a downstream branch and propagates upstream if we
// had pruned ourselves.
func (r *Router) handleGraft(in *netsim.Iface, from addr.IP, m *Message) {
	ack := Message{Type: TypeGraftAck, Source: m.Source, Group: m.Group}
	r.enc.Buf = ack.MarshalTo(r.enc.Buf[:0])
	r.Node.Send(in, r.enc.Packet(in.Addr, from, packet.ProtoDVMRP, 1), from)
	r.Metrics.Inc(metrics.CtrlGraft)

	e := r.MFIB.SG(m.Source, m.Group)
	if e == nil {
		return
	}
	e.AddOIF(in, infiniteExpiry)
	if r.prunedUpstream[e.Key] {
		r.sendCtrlUpstream(e, TypeGraft, 0)
		delete(r.prunedUpstream, e.Key)
	}
}

// maybePruneUpstream sends a prune toward the source when no outgoing
// interface remains.
func (r *Router) maybePruneUpstream(e *mfib.Entry) {
	if !e.OIFEmpty(r.Now()) || r.prunedUpstream[e.Key] {
		return
	}
	if e.UpstreamNeighbor == 0 {
		return // first-hop router for the source: nothing upstream
	}
	r.sendCtrlUpstream(e, TypePrune, uint16(r.Cfg.PruneLifetime/netsim.Second))
	r.prunedUpstream[e.Key] = true
	// Self grow-back: after the advertised lifetime upstream resumes
	// sending, so clear the pruned marker and let data re-populate.
	key := e.Key
	r.After(r.Cfg.PruneLifetime, func() {
		delete(r.prunedUpstream, key)
	})
}

func (r *Router) sendCtrlUpstream(e *mfib.Entry, typ byte, lifetime uint16) {
	if e.IIF == nil || e.UpstreamNeighbor == 0 || !e.IIF.Up() {
		return
	}
	m := Message{Type: typ, Source: e.Key.Source, Group: e.Key.Group, Lifetime: lifetime}
	r.enc.Buf = m.MarshalTo(r.enc.Buf[:0])
	r.Node.Send(e.IIF, r.enc.Packet(e.IIF.Addr, e.UpstreamNeighbor, packet.ProtoDVMRP, 1), e.UpstreamNeighbor)
	switch typ {
	case TypePrune:
		r.Metrics.Inc(metrics.CtrlPrune)
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{
				Kind: telemetry.PruneSend, Iface: e.IIF.Index, Source: e.Key.Source,
				Group: e.Key.Group,
			})
		}
	case TypeGraft:
		r.Metrics.Inc(metrics.CtrlGraft)
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{
				Kind: telemetry.GraftSend, Iface: e.IIF.Index, Source: e.Key.Source,
				Group: e.Key.Group,
			})
		}
		// Grafts are acknowledged: arm retransmission until the ack lands
		// or the branch no longer wants traffic.
		r.armGraftRetry(e.Key, r.Cfg.GraftRetry)
	}
}

func (r *Router) armGraftRetry(key mfib.Key, backoff netsim.Time) {
	if prev := r.pendingGrafts[key]; prev != nil {
		prev.timer.Stop()
	}
	p := &pendingGraft{backoff: backoff}
	p.timer = r.After(backoff, func() {
		if r.pendingGrafts[key] != p {
			return
		}
		delete(r.pendingGrafts, key)
		e := r.MFIB.Get(key)
		if e == nil || e.OIFEmpty(r.Now()) {
			return
		}
		if e.IIF == nil || e.UpstreamNeighbor == 0 || !e.IIF.Up() {
			return
		}
		m := Message{Type: TypeGraft, Source: key.Source, Group: key.Group}
		r.enc.Buf = m.MarshalTo(r.enc.Buf[:0])
		r.Node.Send(e.IIF, r.enc.Packet(e.IIF.Addr, e.UpstreamNeighbor, packet.ProtoDVMRP, 1), e.UpstreamNeighbor)
		r.Metrics.Inc(metrics.CtrlGraft)
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{
				Kind: telemetry.GraftSend, Iface: e.IIF.Index, Source: key.Source, Group: key.Group,
			})
		}
		next := p.backoff * 2
		if max := 8 * r.Cfg.GraftRetry; next > max {
			next = max
		}
		r.armGraftRetry(key, next)
	})
	r.pendingGrafts[key] = p
}

// --- Data plane: truncated RPF broadcast (§1.1) ---

func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	s := pkt.Src
	now := r.Now()
	// RPF check: accept only on the interface used to reach the source.
	srcLocal := in.Addr != 0 && unicast.LinkPrefix(in.Addr).Contains(s)
	var iif *netsim.Iface
	var upstream addr.IP
	if !srcLocal {
		rt, ok := r.rpfc.Lookup(s)
		if !ok {
			r.Metrics.Inc(metrics.DataDropped)
			if r.Telemetry() != nil {
				r.Emit(telemetry.Event{
					Kind: telemetry.NoState, Iface: in.Index, Source: s, Group: g,
				})
			}
			return
		}
		iif, upstream = rt.Iface, rt.NextHop
		if in != iif {
			r.Metrics.Inc(metrics.DataDropped)
			if r.Telemetry() != nil {
				r.Emit(telemetry.Event{
					Kind: telemetry.RPFDrop, Iface: in.Index, Source: s, Group: g,
				})
			}
			return
		}
	} else {
		iif = in
	}

	e := r.MFIB.SG(s, g)
	if e == nil {
		// First packet from this source: install broadcast state on every
		// interface except the RPF one, truncating member-less leaves.
		e, _ = r.MFIB.Upsert(mfib.Key{Source: s, Group: g}, now)
		e.IIF, e.UpstreamNeighbor = iif, upstream
		if srcLocal {
			e.UpstreamNeighbor = 0
		}
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{
				Kind: telemetry.EntryCreate, Iface: -1, Source: s, Group: g,
				Value: telemetry.EntrySG,
			})
			if !srcLocal {
				r.Emit(telemetry.Event{
					Kind: telemetry.IIFSet, Iface: iif.Index, Source: s, Group: g,
					Value: telemetry.EntrySG,
				})
			}
		}
		for _, ifc := range r.Node.Ifaces {
			if ifc == in || !ifc.Up() || ifc.Addr == 0 {
				continue
			}
			if r.neighbors.Leaf(ifc.Index, now) {
				if r.members.Has(ifc.Index, g) {
					e.AddLocalOIF(ifc)
				}
				continue // truncated broadcast
			}
			e.AddOIF(ifc, infiniteExpiry)
		}
	}
	oifs := e.ForwardOIFs(now, in)
	if len(oifs) == 0 {
		r.maybePruneUpstream(e)
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	for _, out := range oifs {
		r.Node.Send(out, fwd, 0)
		r.Metrics.Inc(metrics.DataForwarded)
		if r.Telemetry() != nil {
			r.Emit(telemetry.Event{
				Kind: telemetry.DataForward, Iface: out.Index, Source: s, Group: g,
			})
		}
	}
}
