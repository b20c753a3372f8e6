// Package pimdm implements PIM dense mode, the paper's companion protocol
// (reference [13], discussed in §1.3 fn. 15 and §4): DVMRP-style
// flood-and-prune that is independent of the unicast routing protocol — it
// consumes the same unicast.Router interface as sparse mode — and uses PIM
// message formats (join/prune with the shared LAN semantics, graft, and
// assert for electing a single forwarder on multi-access subnets).
//
// The §4 interoperation discussion ("links should be configurable to
// operate in dense mode or in sparse mode") is exercised by comparison
// benchmarks that run dense and sparse mode over the same topologies and
// measure where each wins.
package pimdm

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/rpf"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Config carries the protocol parameters.
type Config struct {
	// PruneHoldTime bounds prune state before the branch grows back.
	PruneHoldTime netsim.Time
	// QueryInterval paces neighbor discovery (leaf detection + asserts).
	QueryInterval netsim.Time
	// PruneOverrideDelay is the LAN override window (shared with sparse
	// mode's §3.7 semantics).
	PruneOverrideDelay netsim.Time
	// GraftRetry is the initial graft retransmission interval: grafts are
	// the one acknowledged (hence reliable) message in dense mode, so an
	// unacked graft is retransmitted with doubling backoff (capped at 8x)
	// until the ack arrives or the entry no longer wants traffic.
	GraftRetry netsim.Time
	// Scope restricts the router to a subset of its interfaces (nil = all).
	// Border routers (internal/border) scope their dense-mode instance to
	// the dense-region interfaces so data floods, and the member
	// advertisements the border seeds, stay inside the region (§4
	// interoperation).
	Scope func(*netsim.Iface) bool
	// Telemetry, when non-nil, receives structured events for every state
	// transition (see internal/telemetry).
	Telemetry *telemetry.Bus
}

// Defaults.
const (
	DefaultPruneHoldTime      = 120 * netsim.Second
	DefaultQueryInterval      = 30 * netsim.Second
	DefaultPruneOverrideDelay = 3 * netsim.Second
	DefaultGraftRetry         = 3 * netsim.Second
)

const infiniteExpiry = netsim.Time(1) << 60

// Router is one PIM dense-mode router instance.
type Router struct {
	Node    *netsim.Node
	Cfg     Config
	Unicast unicast.Router
	MFIB    *mfib.Table
	Metrics *metrics.Counters

	// tel is the telemetry bus from Config.Telemetry; nil disables all
	// publication.
	tel *telemetry.Bus

	// rpfc memoizes per-packet reverse-path lookups (dense mode RPF-checks
	// every data packet), invalidated by unicast table generation.
	rpfc *rpf.Cache

	neighbors      map[int]map[addr.IP]netsim.Time
	members        map[int]map[addr.IP]bool
	prunedUpstream map[mfib.Key]bool
	// assertLoser[key][ifaceIndex] marks interfaces we lost an assert on.
	assertLoser map[mfib.Key]map[int]bool
	// pendingGrafts holds the retransmission state of unacked grafts.
	pendingGrafts map[mfib.Key]*pendingGraft

	// enc is the reusable control-message encode workspace (see
	// core.Router.enc): safe because Node.Send copies the payload into its
	// transmit frame before returning. jpDec is the join/prune decode
	// scratch, valid only within one handler call. adGroups and adMsg back
	// the periodic member advertisement so the warm path allocates nothing.
	enc      packet.Scratch
	jpDec    pimmsg.JoinPrune
	adGroups []addr.IP
	adMsg    pimmsg.MemberAd

	started bool
	// epoch invalidates scheduled closures across Stop/Restart (see
	// core.Router): timer bodies fire only under the epoch they were
	// scheduled in.
	epoch uint64

	// Member-existence advertisement state (§4 dense/sparse interop): the
	// groups a region router has members for reach the border routers, so
	// they can join sparse-mode trees on the region's behalf. Advertising is
	// demand-driven (see advertises): a border's dense instance always
	// advertises, and a region router starts on the first advertisement it
	// hears (adHeard), so a pure dense-mode deployment sends none.
	adSeq     uint32
	adHeard   bool
	regionAds map[addr.IP]map[addr.IP]bool // origin -> groups
	adSeqs    map[addr.IP]uint32
	adSeen    map[addr.IP]netsim.Time // origin -> last advertisement
	// OnRegionMembership fires when a group's region-wide member presence
	// (local or advertised) toggles. A router with it set is a border's
	// dense instance, which advertises whether or not it has heard the
	// region.
	OnRegionMembership func(g addr.IP, present bool)
	regionPresent      map[addr.IP]bool
	// ExternalInterest, when set, reports that traffic from (s,g) is wanted
	// outside this router's dense scope, suppressing upstream prunes. The
	// border router (internal/border) wires it to the sparse side so the
	// region keeps exporting source traffic toward the RP (§4).
	ExternalInterest func(s, g addr.IP) bool
}

// New builds a dense-mode router.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	if cfg.PruneHoldTime == 0 {
		cfg.PruneHoldTime = DefaultPruneHoldTime
	}
	if cfg.QueryInterval == 0 {
		cfg.QueryInterval = DefaultQueryInterval
	}
	if cfg.PruneOverrideDelay == 0 {
		cfg.PruneOverrideDelay = DefaultPruneOverrideDelay
	}
	if cfg.GraftRetry == 0 {
		cfg.GraftRetry = DefaultGraftRetry
	}
	return &Router{
		Node: nd, Cfg: cfg, Unicast: uni,
		tel:            cfg.Telemetry,
		rpfc:           rpf.New(uni),
		MFIB:           mfib.NewTable(),
		Metrics:        metrics.New(),
		neighbors:      map[int]map[addr.IP]netsim.Time{},
		members:        map[int]map[addr.IP]bool{},
		prunedUpstream: map[mfib.Key]bool{},
		assertLoser:    map[mfib.Key]map[int]bool{},
		pendingGrafts:  map[mfib.Key]*pendingGraft{},
		regionAds:      map[addr.IP]map[addr.IP]bool{},
		adSeqs:         map[addr.IP]uint32{},
		adSeen:         map[addr.IP]netsim.Time{},
		regionPresent:  map[addr.IP]bool{},
	}
}

// inScope reports whether the router operates on the interface.
func (r *Router) inScope(ifc *netsim.Iface) bool {
	return r.Cfg.Scope == nil || r.Cfg.Scope(ifc)
}

// Start registers handlers and begins querying.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	if r.tel != nil {
		r.tel.Publish(telemetry.Event{
			At: r.now(), Kind: telemetry.EpochStart, Router: r.Node.ID, Iface: -1,
			Epoch: r.epoch, Value: int64(r.MFIB.Len()),
		})
	}
	r.Node.Handle(packet.ProtoPIM, netsim.HandlerFunc(r.handlePIM))
	r.Node.Handle(packet.ProtoUDP, netsim.HandlerFunc(r.handleData))
	var query func()
	query = func() {
		r.expireNeighbors()
		r.expireMemberAds()
		r.sendQueries()
		r.originateMemberAd()
		r.after(r.Cfg.QueryInterval, query)
	}
	r.after(0, query)
}

// Stop detaches the router and discards all soft state: forwarding entries,
// neighbor liveness, local membership, prune/assert/graft timers, and the
// region membership-advertisement cache. A region router falls silent until
// it hears an advertisement again. The advertisement sequence number
// survives — peers compare it with signed wraparound and would discard a
// restarted router's advertisements if it restarted from zero.
func (r *Router) Stop() {
	if !r.started {
		return
	}
	r.started = false
	if r.tel != nil {
		r.tel.Publish(telemetry.Event{
			At: r.now(), Kind: telemetry.EpochEnd, Router: r.Node.ID, Iface: -1,
			Epoch: r.epoch, Value: int64(r.MFIB.Len()),
		})
	}
	r.epoch++
	r.Node.Handle(packet.ProtoPIM, nil)
	r.Node.Handle(packet.ProtoUDP, nil)
	for _, p := range r.pendingGrafts {
		p.timer.Stop()
	}
	r.rpfc = rpf.New(r.Unicast)
	r.MFIB = mfib.NewTable()
	r.neighbors = map[int]map[addr.IP]netsim.Time{}
	r.members = map[int]map[addr.IP]bool{}
	r.prunedUpstream = map[mfib.Key]bool{}
	r.assertLoser = map[mfib.Key]map[int]bool{}
	r.pendingGrafts = map[mfib.Key]*pendingGraft{}
	r.adHeard = false
	r.regionAds = map[addr.IP]map[addr.IP]bool{}
	r.adSeqs = map[addr.IP]uint32{}
	r.adSeen = map[addr.IP]netsim.Time{}
	r.regionPresent = map[addr.IP]bool{}
}

// Restart brings a stopped router back empty, rebuilding purely from
// soft-state refresh (flood-and-prune re-learns forwarding state from the
// data packets themselves).
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// after schedules fn under the current epoch: a Stop/Restart before the
// timer fires makes the closure a no-op.
func (r *Router) after(d netsim.Time, fn func()) *netsim.Timer {
	ep := r.epoch
	return r.Node.Sched().After(d, func() {
		if r.epoch == ep {
			// Published past the epoch guard so the event records a timer
			// body that actually ran (see core.Router.after).
			if r.tel != nil {
				r.tel.Publish(telemetry.Event{
					At: r.now(), Kind: telemetry.TimerFire, Router: r.Node.ID,
					Iface: -1, Epoch: ep,
				})
			}
			fn()
		}
	})
}

func (r *Router) now() netsim.Time { return r.Node.Sched().Now() }

// StateCount returns the number of forwarding entries.
func (r *Router) StateCount() int { return r.MFIB.Len() }

// NeighborCount returns the number of live PIM neighbor entries across all
// interfaces — the recovery tests' stale-neighbor probe.
func (r *Router) NeighborCount() int {
	now := r.now()
	n := 0
	for _, byAddr := range r.neighbors {
		for _, deadline := range byAddr {
			if now <= deadline {
				n++
			}
		}
	}
	return n
}

// --- Membership ---

// LocalJoin records a member and grafts pruned branches back.
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	byGroup := r.members[ifc.Index]
	if byGroup == nil {
		byGroup = map[addr.IP]bool{}
		r.members[ifc.Index] = byGroup
	}
	byGroup[g] = true
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		e.AddLocalOIF(ifc)
		if r.prunedUpstream[e.Key] {
			r.sendGraft(e)
			delete(r.prunedUpstream, e.Key)
		}
	})
	r.originateMemberAd()
	r.recomputeRegionPresence()
}

// LocalLeave removes a member; empty branches prune upstream.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	if byGroup := r.members[ifc.Index]; byGroup != nil {
		delete(byGroup, g)
	}
	now := r.now()
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if o := e.OIF(ifc.Index); o != nil && o.LocalMember {
			o.LocalMember = false
			e.Touch()
			if !o.Live(now) {
				e.RemoveOIF(ifc)
			}
		}
		r.maybePruneUpstream(e)
	})
	r.originateMemberAd()
	r.recomputeRegionPresence()
}

func (r *Router) hasMember(ifc *netsim.Iface, g addr.IP) bool {
	byGroup := r.members[ifc.Index]
	return byGroup != nil && byGroup[g]
}

// --- Neighbor discovery ---

func (r *Router) sendQueries() {
	q := pimmsg.Query{HoldTime: uint16(3*r.Cfg.QueryInterval/netsim.Second + 15)}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeQuery)
	r.enc.Buf = q.MarshalTo(r.enc.Buf)
	for _, ifc := range r.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 || !r.inScope(ifc) {
			continue
		}
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlQuery)
	}
}

func (r *Router) expireNeighbors() {
	now := r.now()
	for _, byAddr := range r.neighbors {
		for a, deadline := range byAddr {
			if now > deadline {
				delete(byAddr, a)
			}
		}
	}
}

func (r *Router) isLeaf(ifc *netsim.Iface) bool {
	now := r.now()
	for _, deadline := range r.neighbors[ifc.Index] {
		if now <= deadline {
			return false
		}
	}
	return true
}

// neighborUp re-evaluates existing (S,G) entries when an adjacency forms on
// ifc. Without this, a restarted transit router that saw data before its
// downstream neighbor's first hello builds entries with ifc leaf-classified
// and absent from every oif list — and since entries are only grown by
// grafts (which the downstream never sends: it kept forwarding and has no
// pruned state), the pre-crash flow black-holes until PruneHoldTime, or
// forever when the upstream prune is periodically refreshed. Re-adding the
// branch restores the §1.3 flood-and-prune contract: data flows everywhere a
// live neighbor sits until that neighbor says prune.
func (r *Router) neighborUp(ifc *netsim.Iface) {
	if !ifc.Up() || ifc.Addr == 0 || !r.inScope(ifc) {
		return
	}
	now := r.now()
	r.MFIB.ForEach(func(e *mfib.Entry) {
		if e.Wildcard || e.Key.RPBit {
			return
		}
		if e.IIF == ifc {
			return
		}
		if r.assertLoser[e.Key][ifc.Index] {
			return
		}
		if o := e.OIF(ifc.Index); o != nil && o.Live(now) {
			return
		}
		e.AddOIF(ifc, infiniteExpiry)
		if r.prunedUpstream[e.Key] {
			r.sendGraft(e)
			delete(r.prunedUpstream, e.Key)
		}
	})
}

// --- Control messages ---

func (r *Router) handlePIM(in *netsim.Iface, pkt *packet.Packet) {
	typ, body, err := pimmsg.Open(pkt.Payload)
	if err != nil {
		return
	}
	switch typ {
	case pimmsg.TypeQuery:
		var q pimmsg.Query
		if err := pimmsg.UnmarshalQueryInto(&q, body); err != nil {
			return
		}
		byAddr := r.neighbors[in.Index]
		if byAddr == nil {
			byAddr = map[addr.IP]netsim.Time{}
			r.neighbors[in.Index] = byAddr
		}
		deadline, known := byAddr[pkt.Src]
		fresh := !known || r.now() > deadline
		byAddr[pkt.Src] = r.now() + netsim.Time(q.HoldTime)*netsim.Second
		if fresh {
			r.neighborUp(in)
		}
	case pimmsg.TypeJoinPrune:
		r.handleJoinPrune(in, body)
	case pimmsg.TypeGraft:
		r.handleGraft(in, pkt.Src, body)
	case pimmsg.TypeGraftAck:
		r.handleGraftAck(in, body)
	case pimmsg.TypeAssert:
		r.handleAssert(in, pkt.Src, body)
	case pimmsg.TypeMemberAd:
		r.handleMemberAd(in, body)
	}
}

// --- Member-existence advertisements (§4 interop) ---

func (r *Router) localGroups() []addr.IP {
	// Collect into the reusable buffer, then sort+compact to dedupe across
	// interfaces: the warm advertisement path allocates nothing.
	out := r.adGroups[:0]
	for _, byGroup := range r.members {
		for g, ok := range byGroup {
			if ok {
				out = append(out, g)
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	r.adGroups = out
	return out
}

// advertises reports whether this router originates member advertisements:
// a border's dense instance always does, a region router once it has heard
// one.
func (r *Router) advertises() bool {
	return r.adHeard || r.OnRegionMembership != nil
}

func (r *Router) originateMemberAd() {
	if !r.advertises() {
		return
	}
	r.adSeq++
	r.adMsg = pimmsg.MemberAd{Origin: r.Node.Addr(), Seq: r.adSeq, Groups: r.localGroups()}
	r.floodMemberAd(&r.adMsg, nil)
}

func (r *Router) handleMemberAd(in *netsim.Iface, body []byte) {
	ad, err := pimmsg.UnmarshalMemberAd(body)
	if err != nil || ad.Origin == r.Node.Addr() {
		return
	}
	if cur, ok := r.adSeqs[ad.Origin]; ok && int32(ad.Seq-cur) <= 0 {
		return
	}
	r.adSeqs[ad.Origin] = ad.Seq
	r.adSeen[ad.Origin] = r.now()
	groups := map[addr.IP]bool{}
	for _, g := range ad.Groups {
		groups[g] = true
	}
	r.regionAds[ad.Origin] = groups
	r.floodMemberAd(ad, in)
	wasSilent := !r.advertises()
	r.adHeard = true
	if wasSilent {
		// The region has an advertiser, so a border is listening: join in
		// now rather than at the next query.
		r.originateMemberAd()
	}
	r.recomputeRegionPresence()
}

func (r *Router) floodMemberAd(ad *pimmsg.MemberAd, except *netsim.Iface) {
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeMemberAd)
	r.enc.Buf = ad.MarshalTo(r.enc.Buf)
	for _, ifc := range r.Node.Ifaces {
		if ifc == except || !ifc.Up() || ifc.Addr == 0 || !r.inScope(ifc) {
			continue
		}
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlMemberAd)
	}
}

// expireMemberAds drops advertisements from routers that have gone silent
// (soft state: a crashed member router must not pin the border to the
// sparse tree forever).
func (r *Router) expireMemberAds() {
	now := r.now()
	changed := false
	for origin, seen := range r.adSeen {
		if now-seen > 3*r.Cfg.QueryInterval {
			delete(r.adSeen, origin)
			delete(r.adSeqs, origin)
			delete(r.regionAds, origin)
			changed = true
		}
	}
	if changed {
		r.recomputeRegionPresence()
	}
}

// RegionHasMembers reports whether any router in the region (including this
// one) has advertised local members for g.
func (r *Router) RegionHasMembers(g addr.IP) bool {
	for _, byGroup := range r.members {
		if byGroup[g] {
			return true
		}
	}
	for _, groups := range r.regionAds {
		if groups[g] {
			return true
		}
	}
	return false
}

// recomputeRegionPresence fires OnRegionMembership for groups whose
// region-wide presence toggled.
func (r *Router) recomputeRegionPresence() {
	if r.OnRegionMembership == nil {
		return
	}
	seen := map[addr.IP]bool{}
	for _, byGroup := range r.members {
		for g, ok := range byGroup {
			if ok {
				seen[g] = true
			}
		}
	}
	for _, groups := range r.regionAds {
		for g := range groups {
			seen[g] = true
		}
	}
	// Callback order must not follow map iteration: the border hooks send
	// joins/grafts, and under injected loss the draw sequence is consumed
	// in delivery order (the expireNeighbors bug class). Fire toggles in
	// ascending group order.
	var on, off []addr.IP
	for g := range seen {
		if !r.regionPresent[g] {
			on = append(on, g)
		}
	}
	for g := range r.regionPresent {
		if !seen[g] {
			off = append(off, g)
		}
	}
	slices.Sort(on)
	slices.Sort(off)
	for _, g := range on {
		r.regionPresent[g] = true
		r.OnRegionMembership(g, true)
	}
	for _, g := range off {
		delete(r.regionPresent, g)
		r.OnRegionMembership(g, false)
	}
}

func (r *Router) handleJoinPrune(in *netsim.Iface, body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil {
		return
	}
	mine := m.UpstreamNeighbor == in.Addr
	for _, grp := range m.Groups {
		for _, a := range grp.Prunes {
			e := r.MFIB.SG(a.Addr, grp.Group)
			if e == nil {
				continue
			}
			if mine {
				r.schedulePrune(e, in, grp.Group)
			} else if in.Link != nil && in.Link.IsLAN() {
				// Overheard on the LAN: override if we still depend on it.
				if e.IIF == in && !e.OIFEmpty(r.now()) {
					r.sendJoinOverride(in, m.UpstreamNeighbor, grp.Group, a.Addr)
				}
			}
		}
		for _, a := range grp.Joins {
			e := r.MFIB.SG(a.Addr, grp.Group)
			if e == nil || !mine {
				continue
			}
			// A join (override) cancels a pending prune and restores the oif.
			e.AddOIF(in, infiniteExpiry)
		}
	}
}

func (r *Router) schedulePrune(e *mfib.Entry, in *netsim.Iface, g addr.IP) {
	if r.hasMember(in, g) {
		return
	}
	key := e.Key
	apply := func(cur *mfib.Entry) {
		cur.RemoveOIF(in)
		r.after(r.Cfg.PruneHoldTime, func() {
			// Grow back.
			if c := r.MFIB.Get(key); c != nil && in.Up() && !r.assertLoser[key][in.Index] {
				c.AddOIF(in, infiniteExpiry)
				delete(r.prunedUpstream, key)
			}
		})
		r.maybePruneUpstream(cur)
	}
	if in.Link != nil && in.Link.IsLAN() {
		o := e.OIF(in.Index)
		if o == nil {
			return
		}
		o.PrunePending = true
		o.PruneDeadline = r.now() + r.Cfg.PruneOverrideDelay
		e.Touch()
		// Re-look the entry up at fire time: entry/oif pointers must not be
		// held across the delay (the flat store recycles slots), and a join
		// override in the window clears PrunePending, cancelling the prune.
		life := e.Life()
		r.after(r.Cfg.PruneOverrideDelay, func() {
			cur := r.MFIB.Get(key)
			if cur == nil || cur.Life() != life {
				return
			}
			if co := cur.OIF(in.Index); co != nil && co.PrunePending && r.now() >= co.PruneDeadline {
				apply(cur)
			}
		})
		return
	}
	apply(e)
}

func (r *Router) sendJoinOverride(out *netsim.Iface, upstream, g, s addr.IP) {
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: upstream,
		HoldTime:         uint16(r.Cfg.PruneHoldTime / netsim.Second),
		Groups:           []pimmsg.GroupRecord{{Group: g, Joins: []pimmsg.Addr{{Addr: s}}}},
	}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeJoinPrune)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	r.Node.Send(out, r.enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlJoinPrune)
	if r.tel != nil {
		r.tel.Publish(telemetry.Event{
			At: r.now(), Kind: telemetry.JoinPruneSend, Router: r.Node.ID,
			Iface: out.Index, Epoch: r.epoch, Source: s, Group: g, Value: 1,
		})
	}
}

func (r *Router) handleGraft(in *netsim.Iface, from addr.IP, body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil || m.UpstreamNeighbor != in.Addr {
		return
	}
	// Ack hop-by-hop.
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeGraftAck)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	r.Node.Send(in, r.enc.Packet(in.Addr, from, packet.ProtoPIM, 1), from)
	for _, grp := range m.Groups {
		for _, a := range grp.Joins {
			e := r.MFIB.SG(a.Addr, grp.Group)
			if e == nil {
				continue
			}
			e.AddOIF(in, infiniteExpiry)
			if r.prunedUpstream[e.Key] {
				r.sendGraft(e)
				delete(r.prunedUpstream, e.Key)
			}
		}
	}
}

// pendingGraft tracks one unacked graft awaiting retransmission.
type pendingGraft struct {
	timer   *netsim.Timer
	backoff netsim.Time
}

// sendGraft transmits a graft and arms retransmission: the graft is the one
// acknowledged message in dense mode, re-sent with doubling backoff until
// the upstream acks it (handleGraftAck) or the entry stops wanting traffic.
func (r *Router) sendGraft(e *mfib.Entry) {
	if !r.transmitGraft(e) {
		return
	}
	r.armGraftRetry(e.Key, r.Cfg.GraftRetry)
}

func (r *Router) transmitGraft(e *mfib.Entry) bool {
	if e.IIF == nil || e.UpstreamNeighbor == 0 || !e.IIF.Up() {
		return false
	}
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: e.UpstreamNeighbor,
		Groups: []pimmsg.GroupRecord{{
			Group: e.Key.Group,
			Joins: []pimmsg.Addr{{Addr: e.Key.Source}},
		}},
	}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeGraft)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	r.Node.Send(e.IIF, r.enc.Packet(e.IIF.Addr, e.UpstreamNeighbor, packet.ProtoPIM, 1), e.UpstreamNeighbor)
	r.Metrics.Inc(metrics.CtrlGraft)
	if r.tel != nil {
		r.tel.Publish(telemetry.Event{
			At: r.now(), Kind: telemetry.GraftSend, Router: r.Node.ID,
			Iface: e.IIF.Index, Epoch: r.epoch,
			Source: e.Key.Source, Group: e.Key.Group,
		})
	}
	return true
}

func (r *Router) armGraftRetry(key mfib.Key, backoff netsim.Time) {
	if prev := r.pendingGrafts[key]; prev != nil {
		prev.timer.Stop()
	}
	p := &pendingGraft{backoff: backoff}
	p.timer = r.after(backoff, func() {
		if r.pendingGrafts[key] != p {
			return
		}
		e := r.MFIB.Get(key)
		if e == nil || e.OIFEmpty(r.now()) {
			delete(r.pendingGrafts, key)
			return
		}
		if !r.transmitGraft(e) {
			delete(r.pendingGrafts, key)
			return
		}
		next := p.backoff * 2
		if max := 8 * r.Cfg.GraftRetry; next > max {
			next = max
		}
		r.armGraftRetry(key, next)
	})
	r.pendingGrafts[key] = p
}

// handleGraftAck clears retransmission state for every (S,G) the upstream
// echoed back in the ack.
func (r *Router) handleGraftAck(in *netsim.Iface, body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil {
		return
	}
	for _, grp := range m.Groups {
		for _, a := range grp.Joins {
			key := mfib.Key{Source: a.Addr, Group: grp.Group}
			if p := r.pendingGrafts[key]; p != nil {
				p.timer.Stop()
				delete(r.pendingGrafts, key)
			}
		}
	}
}

func (r *Router) maybePruneUpstream(e *mfib.Entry) {
	if !e.OIFEmpty(r.now()) || r.prunedUpstream[e.Key] {
		return
	}
	if r.ExternalInterest != nil && r.ExternalInterest(e.Key.Source, e.Key.Group) {
		return
	}
	if e.UpstreamNeighbor == 0 || e.IIF == nil || !e.IIF.Up() {
		return
	}
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: e.UpstreamNeighbor,
		HoldTime:         uint16(r.Cfg.PruneHoldTime / netsim.Second),
		Groups: []pimmsg.GroupRecord{{
			Group:  e.Key.Group,
			Prunes: []pimmsg.Addr{{Addr: e.Key.Source}},
		}},
	}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeJoinPrune)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	r.Node.Send(e.IIF, r.enc.Packet(e.IIF.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlPrune)
	if r.tel != nil {
		r.tel.Publish(telemetry.Event{
			At: r.now(), Kind: telemetry.PruneSend, Router: r.Node.ID,
			Iface: e.IIF.Index, Epoch: r.epoch,
			Source: e.Key.Source, Group: e.Key.Group,
		})
	}
	r.prunedUpstream[e.Key] = true
	key := e.Key
	r.after(r.Cfg.PruneHoldTime, func() {
		delete(r.prunedUpstream, key)
	})
}

// --- Assert (LAN duplicate forwarder election) ---

// handleAssert resolves a parallel-forwarder conflict: the router with the
// lower metric to the source keeps the LAN oif; ties break to the higher
// address.
func (r *Router) handleAssert(in *netsim.Iface, from addr.IP, body []byte) {
	a, err := pimmsg.UnmarshalAssert(body)
	if err != nil {
		return
	}
	e := r.MFIB.SG(a.Source, a.Group)
	if e == nil {
		return
	}
	o := e.OIF(in.Index)
	if o == nil || !o.Live(r.now()) {
		return
	}
	my := r.metricTo(a.Source)
	if my > int64(a.Metric) || (my == int64(a.Metric) && in.Addr < from) {
		// We lose: stop forwarding onto this LAN until state rebuilds.
		e.RemoveOIF(in)
		key := e.Key
		if r.assertLoser[key] == nil {
			r.assertLoser[key] = map[int]bool{}
		}
		r.assertLoser[key][in.Index] = true
		r.after(r.Cfg.PruneHoldTime, func() {
			delete(r.assertLoser[key], in.Index)
		})
	}
}

func (r *Router) sendAssert(out *netsim.Iface, s, g addr.IP) {
	a := pimmsg.Assert{Group: g, Source: s, Metric: uint32(r.metricTo(s))}
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeAssert)
	r.enc.Buf = a.MarshalTo(r.enc.Buf)
	r.Node.Send(out, r.enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlAssert)
}

func (r *Router) metricTo(s addr.IP) int64 {
	rt, ok := r.rpfc.Lookup(s)
	if !ok {
		return 1 << 30
	}
	return rt.Metric
}

// --- Data plane ---

func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	s := pkt.Src
	now := r.now()
	srcLocal := in.Addr != 0 && unicast.LinkPrefix(in.Addr).Contains(s)
	var iif *netsim.Iface
	var upstream addr.IP
	if !srcLocal {
		rt, ok := r.rpfc.Lookup(s)
		if !ok {
			r.Metrics.Inc(metrics.DataDropped)
			if r.tel != nil {
				r.tel.Publish(telemetry.Event{
					At: now, Kind: telemetry.NoState, Router: r.Node.ID,
					Iface: in.Index, Epoch: r.epoch, Source: s, Group: g,
				})
			}
			return
		}
		iif, upstream = rt.Iface, rt.NextHop
		if in != iif {
			// A data packet arriving on one of our outgoing interfaces
			// means a parallel forwarder exists on that LAN: assert.
			if e := r.MFIB.SG(s, g); e != nil && e.HasOIF(in, now) &&
				in.Link != nil && in.Link.IsLAN() {
				r.sendAssert(in, s, g)
			}
			r.Metrics.Inc(metrics.DataDropped)
			if r.tel != nil {
				r.tel.Publish(telemetry.Event{
					At: now, Kind: telemetry.RPFDrop, Router: r.Node.ID,
					Iface: in.Index, Epoch: r.epoch, Source: s, Group: g,
				})
			}
			return
		}
	} else {
		iif = in
	}
	e := r.MFIB.SG(s, g)
	if e == nil {
		e, _ = r.MFIB.Upsert(mfib.Key{Source: s, Group: g}, now)
		e.IIF, e.UpstreamNeighbor = iif, upstream
		if srcLocal {
			e.UpstreamNeighbor = 0
		}
		if r.tel != nil {
			r.tel.Publish(telemetry.Event{
				At: now, Kind: telemetry.EntryCreate, Router: r.Node.ID, Iface: -1,
				Epoch: r.epoch, Source: s, Group: g, Value: telemetry.EntrySG,
			})
			if !srcLocal {
				r.tel.Publish(telemetry.Event{
					At: now, Kind: telemetry.IIFSet, Router: r.Node.ID,
					Iface: iif.Index, Epoch: r.epoch, Source: s, Group: g,
					Value: telemetry.EntrySG,
				})
			}
		}
		for _, ifc := range r.Node.Ifaces {
			if ifc == in || !ifc.Up() || ifc.Addr == 0 || !r.inScope(ifc) {
				continue
			}
			if r.isLeaf(ifc) {
				if r.hasMember(ifc, g) {
					e.AddLocalOIF(ifc)
				}
				continue
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
		if r.tel != nil {
			r.tel.Publish(telemetry.Event{
				At: now, Kind: telemetry.DataForward, Router: r.Node.ID,
				Iface: out.Index, Epoch: r.epoch, Source: s, Group: g,
			})
		}
	}
}

// HandlePIMPacket is the exported PIM control entry point for border-router
// multiplexing (internal/border).
func (r *Router) HandlePIMPacket(in *netsim.Iface, pkt *packet.Packet) { r.handlePIM(in, pkt) }

// HandleDataPacket is the exported data-plane entry point (see
// HandlePIMPacket).
func (r *Router) HandleDataPacket(in *netsim.Iface, pkt *packet.Packet) { r.handleData(in, pkt) }
