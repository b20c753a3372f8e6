package core

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
)

// handleRegister is the RP side of the rendezvous (§3): decapsulate the
// piggybacked data packet, build (S,G) state toward the source, answer with
// a join toward the source, and distribute the data down the shared tree.
func (r *Router) handleRegister(in *netsim.Iface, outer *packet.Packet, body []byte) {
	reg, err := pimmsg.UnmarshalRegister(body)
	if err != nil {
		return
	}
	inner, err := packet.Unmarshal(reg.Inner)
	if err != nil {
		return
	}
	g := inner.Dst
	if !g.IsMulticast() {
		return
	}
	r.rpAcceptSource(r.sourceKey(inner.Src), g, nil)
	// Deliver the encapsulated payload down the shared tree so receivers
	// get data while the native path builds (§3: "one or more rendezvous
	// points are used initially to propagate data packets from sources to
	// receivers"). Once native (S,G) data reaches this RP (SPT bit set),
	// the register copy is redundant and is dropped — equal-cost-path
	// asymmetry can otherwise leave the DR registering forever and every
	// receiver seeing duplicates.
	if sg := r.MFIB.SG(r.sourceKey(inner.Src), g); sg != nil && sg.SPTBit {
		return
	}
	if wc := r.MFIB.Wildcard(g); wc != nil {
		r.emit(inner, nil, r.sharedOIFs(wc, r.sourceKey(inner.Src), nil), true)
	}
}

// rpAcceptSource installs RP-side (S,G) state for a newly announced source
// and joins toward it. via is the interface the source is directly
// connected on when the RP is also the source's DR, nil otherwise.
func (r *Router) rpAcceptSource(s, g addr.IP, via *netsim.Iface) {
	now := r.Now()
	sg, created := r.upsert(mfib.Key{Source: s, Group: g}, now)
	if !created {
		return
	}
	if rp, ok := r.rpFor(g); ok {
		sg.RP = rp
	}
	if via != nil {
		sg.IIF, sg.UpstreamNeighbor = via, 0
		sg.SPTBit = true
	} else {
		r.setUpstream(sg, s)
	}
	// Shared-tree branches are served through the inherited outgoing list
	// at forwarding time (unionOIFs), so no oif copy is needed here; the
	// paper's copy-at-creation is subsumed by inheritance (DESIGN.md §4).
	if sg.UpstreamNeighbor != 0 {
		r.sendJoinPrune(sg.IIF, sg.UpstreamNeighbor, g, []pimmsg.Addr{{Addr: s}}, nil)
	}
}

// originateRPReach sends RP reachability messages down every (*,G) tree
// this router is the RP for (§3.2: "RP reachability messages are generated
// by RPs periodically and distributed down the (*,G) tree").
func (r *Router) originateRPReach() {
	hold := uint16(3 * r.Cfg.RPReachInterval / netsim.Second)
	r.MFIB.ForEach(func(e *mfib.Entry) {
		if !e.Wildcard || !r.Node.OwnsAddr(e.RP) {
			return
		}
		r.distributeRPReach(e, &pimmsg.RPReach{Group: e.Key.Group, RP: e.RP, HoldTime: hold}, nil)
	})
}

func (r *Router) distributeRPReach(wc *mfib.Entry, m *pimmsg.RPReach, except *netsim.Iface) {
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeRPReach)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	for _, ifc := range wc.AppendLiveOIFs(nil, r.Now(), except) {
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlRPReach)
	}
}

// handleRPReach resets the RP fail-over timer and propagates the message
// down the shared tree (§3.2, §3.9).
func (r *Router) handleRPReach(in *netsim.Iface, body []byte) {
	m, err := pimmsg.UnmarshalRPReach(body)
	if err != nil {
		return
	}
	wc := r.MFIB.Wildcard(m.Group)
	if wc == nil || wc.RP != m.RP || in != wc.IIF {
		return
	}
	if tm := r.rpTimer[m.Group]; tm != nil {
		// Only routers with local members arm the timer (§3.9: "when a
		// (*,G) entry is established by a router with local members, a
		// timer is set").
		r.armRPTimer(m.Group)
	}
	r.distributeRPReach(wc, m, in)
}

// originateRPReport floods this router's served groups when dynamic RP
// discovery is enabled (§4).
func (r *Router) originateRPReport() {
	if !r.Cfg.AdvertiseRPMapping {
		return
	}
	served := map[addr.IP][]addr.IP{} // rp address we own -> groups
	for g, rps := range r.rpMap {
		for _, rp := range rps {
			if r.Node.OwnsAddr(rp) {
				served[rp] = append(served[rp], g)
			}
		}
	}
	// Flood in sorted order: report content and emission sequence must not
	// depend on map iteration (deterministic simulation).
	rps := make([]addr.IP, 0, len(served))
	for rp := range served {
		rps = append(rps, rp)
	}
	slices.Sort(rps)
	for _, rp := range rps {
		groups := served[rp]
		slices.Sort(groups)
		r.rpReportSeq++
		rep := &pimmsg.RPReport{RP: rp, Seq: r.rpReportSeq, Groups: groups}
		r.floodRPReport(rep, nil)
	}
}

func (r *Router) handleRPReport(in *netsim.Iface, body []byte) {
	rep, err := pimmsg.UnmarshalRPReport(body)
	if err != nil || r.Node.OwnsAddr(rep.RP) {
		return
	}
	if cur, ok := r.rpReportSeqs[rep.RP]; ok && int32(rep.Seq-cur) <= 0 {
		return
	}
	r.rpReportSeqs[rep.RP] = rep.Seq
	expires := r.Now() + 3*r.Cfg.RPReachInterval
	for _, g := range rep.Groups {
		// Cached mapping; configuration and host-supplied mappings win.
		r.learnedRP[g] = learnedMapping{rp: rep.RP, expires: expires}
	}
	r.floodRPReport(rep, in)
}

func (r *Router) floodRPReport(rep *pimmsg.RPReport, except *netsim.Iface) {
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeRPReport)
	r.enc.Buf = rep.MarshalTo(r.enc.Buf)
	for _, ifc := range r.Node.Ifaces {
		if ifc == except || !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		r.Node.Send(ifc, r.enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlRPReach)
	}
}

// rpFailover switches the group to an alternate RP after reachability is
// lost (§3.9): tear down the old (*,G), rebuild toward the next candidate
// with only the local-member interfaces, and join it.
func (r *Router) rpFailover(g addr.IP) {
	old := r.MFIB.Wildcard(g)
	if old == nil {
		return
	}
	if r.Node.OwnsAddr(old.RP) {
		return // we are the RP: always reachable from ourselves
	}
	candidates := r.rpMap[g]
	if len(candidates) == 0 {
		return
	}
	cur := old.RP
	next := cur
	for i, rp := range candidates {
		if rp == cur {
			next = candidates[(i+1)%len(candidates)]
			break
		}
	}
	// Local-member interfaces survive; downstream join state must re-form
	// toward whichever RP the downstream routers themselves fail over to.
	var localIfaces []*netsim.Iface
	for i := 0; i < old.OIFCount(); i++ {
		if o := old.OIFAt(i); o.LocalMember {
			localIfaces = append(localIfaces, o.Iface)
		}
	}
	if len(localIfaces) == 0 {
		return // transit-only state: soft-state expiry handles it
	}
	if r.Telemetry() != nil {
		r.Emit(telemetry.Event{Kind: telemetry.RPFailover, Iface: -1, Source: next, Group: g})
	}
	r.deleteEntry(old.Key)
	// Also drop negative caches tied to the old tree.
	var stale []mfib.Key
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if e.Key.RPBit && !e.Wildcard {
			stale = append(stale, e.Key)
		}
	})
	for _, k := range stale {
		r.deleteEntry(k)
	}
	r.currentRP[g] = next
	now := r.Now()
	wc, _ := r.upsert(mfib.Key{Group: g, RPBit: true}, now)
	wc.RP = next
	r.setUpstream(wc, next)
	for _, ifc := range localIfaces {
		if ifc != wc.IIF {
			wc.AddLocalOIF(ifc)
		}
	}
	r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g,
		[]pimmsg.Addr{{Addr: next, WC: true, RP: true}}, nil)
	r.armRPTimer(g)
}
