package core

import (
	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
)

// --- Local membership (§3.1) ---

// LocalJoin records an IGMP-reported member for g on ifc and, if this
// router is the DR there and an RP mapping exists, builds or extends the
// (*,G) shared-tree state and sends a triggered join toward the RP (§3.2).
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	if !r.IsDR(ifc) {
		return
	}
	rp, ok := r.rpFor(g)
	if !ok {
		// No RP mapping: the group is not handled in sparse mode (§3.1).
		return
	}
	now := r.Now()
	wc, created := r.upsert(mfib.Key{Group: g, RPBit: true}, now)
	wc.AddLocalOIF(ifc)
	if created {
		wc.RP = rp
		r.setUpstream(wc, rp)
	}
	// Always send a triggered join: a re-joining member must not wait for
	// the next periodic refresh to re-draw the tree (the upstream branch
	// may have been pruned since the last member left).
	r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g,
		[]pimmsg.Addr{{Addr: wc.RP, WC: true, RP: true}}, nil)
	r.armRPTimer(g)
}

// LocalLeave withdraws a local member; when the last outgoing interface
// disappears the state is pruned upstream and scheduled for deletion
// (§3.6).
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	now := r.Now()
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		o := e.OIF(ifc.Index)
		if o == nil || !o.LocalMember {
			return
		}
		o.LocalMember = false
		e.Touch()
		if !o.Live(now) {
			e.RemoveOIF(ifc)
		}
		if !e.Key.RPBit || e.Wildcard {
			r.checkEmptyOIF(e)
		}
	})
}

// armRPTimer (re)starts the RP fail-over timer for a group with local
// members (§3.9). A router that is itself the group's RP never arms one:
// it originates the reachability messages and cannot hear its own beacons.
func (r *Router) armRPTimer(g addr.IP) {
	if rp, ok := r.rpFor(g); ok && r.Node.OwnsAddr(rp) {
		return
	}
	if tm := r.rpTimer[g]; tm != nil {
		tm.Stop()
	}
	r.rpTimer[g] = r.After(3*r.Cfg.RPReachInterval, func() { r.rpFailover(g) })
}

// --- Sending ---

// sendJoinPrune emits one join/prune message for a single group out the
// given interface, addressed to the upstream neighbor but multicast to
// 224.0.0.2 so LAN peers overhear it (§3.7).
func (r *Router) sendJoinPrune(out *netsim.Iface, upstream addr.IP, g addr.IP, joins, prunes []pimmsg.Addr) {
	if out == nil || upstream == 0 || !out.Up() {
		return
	}
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: upstream,
		HoldTime:         r.Cfg.holdTimeSeconds(),
		Groups:           []pimmsg.GroupRecord{{Group: g, Joins: joins, Prunes: prunes}},
	}
	r.transmitJoinPrune(out, m)
}

func (r *Router) transmitJoinPrune(out *netsim.Iface, m *pimmsg.JoinPrune) {
	r.enc.Buf = pimmsg.AppendEnvelope(r.enc.Buf[:0], pimmsg.TypeJoinPrune)
	r.enc.Buf = m.MarshalTo(r.enc.Buf)
	r.Node.Send(out, r.enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlJoinPrune)
	if r.Telemetry() != nil {
		r.Emit(telemetry.Event{
			Kind: telemetry.JoinPruneSend, Iface: out.Index, Value: int64(len(m.Groups)),
		})
	}
}

// setUpstream resolves and installs the RPF interface and upstream neighbor
// of an entry toward the given target (RP or source).
func (r *Router) setUpstream(e *mfib.Entry, target addr.IP) {
	iif, up, ok := r.rpf(target)
	if !ok {
		iif, up = nil, 0
	}
	e.IIF, e.UpstreamNeighbor = iif, up
	e.Touch()
	if r.Telemetry() != nil {
		idx := -1
		if iif != nil {
			idx = iif.Index
		}
		r.Emit(telemetry.Event{
			Kind: telemetry.IIFSet, Iface: idx, Source: target, Group: e.Key.Group,
			Value: entryKind(e.Key),
		})
	}
}

// upstreamTarget returns the address an entry's joins/prunes chase: the RP
// for wildcard and RP-bit entries, the source otherwise.
func upstreamTarget(e *mfib.Entry) addr.IP {
	if e.Wildcard || e.Key.RPBit {
		return e.RP
	}
	return e.Key.Source
}

// --- Periodic refresh (§3.4) ---

// jpRecord collects one group's joins and prunes for one destination during
// a periodic refresh; jpDest is one (interface, upstream neighbor) batch.
// Both live in reusable per-router scratch: the slices are truncated, never
// reallocated, between refreshes, so the steady-state batching path is
// allocation-free (pinned by TestJoinPruneRefreshZeroAlloc).
type jpRecord struct {
	g      addr.IP
	joins  []pimmsg.Addr
	prunes []pimmsg.Addr
}

type jpDest struct {
	iface    *netsim.Iface
	upstream addr.IP
	recs     []jpRecord
}

// periodicRefresh re-sends the join/prune state for every entry, batched
// per (interface, upstream neighbor) so one message carries many groups.
func (r *Router) periodicRefresh() {
	now := r.Now()
	// Transmission order must not depend on map iteration: the simulation
	// is deterministic, and under injected loss the draw sequence is
	// consumed in delivery order. Destinations are emitted in the order the
	// (MFIB-sorted) walk first produced them, and a destination's groups
	// arrive already sorted because the walk is group-ordered.
	nb := 0
	grab := func(ifc *netsim.Iface, up addr.IP) *jpDest {
		for i := 0; i < nb; i++ {
			if d := &r.jpBatch[i]; d.iface == ifc && d.upstream == up {
				return d
			}
		}
		if nb == len(r.jpBatch) {
			r.jpBatch = append(r.jpBatch, jpDest{})
		}
		d := &r.jpBatch[nb]
		nb++
		d.iface, d.upstream = ifc, up
		d.recs = d.recs[:0]
		return d
	}
	add := func(ifc *netsim.Iface, up addr.IP, g addr.IP, a pimmsg.Addr, prune bool) {
		if ifc == nil || up == 0 || !ifc.Up() {
			return
		}
		d := grab(ifc, up)
		var rec *jpRecord
		if n := len(d.recs); n > 0 && d.recs[n-1].g == g {
			// The walk visits a group's entries contiguously, so an open
			// record for g is always the destination's last one.
			rec = &d.recs[n-1]
		} else if n < cap(d.recs) {
			d.recs = d.recs[:n+1]
			rec = &d.recs[n]
			rec.g = g
			rec.joins = rec.joins[:0]
			rec.prunes = rec.prunes[:0]
		} else {
			d.recs = append(d.recs, jpRecord{g: g})
			rec = &d.recs[n]
		}
		if prune {
			rec.prunes = append(rec.prunes, a)
		} else {
			rec.joins = append(rec.joins, a)
		}
	}

	r.MFIB.ForEach(func(e *mfib.Entry) {
		g := e.Key.Group
		switch {
		case e.Wildcard:
			if e.OIFEmpty(now) || e.DeleteAt != 0 {
				r.checkEmptyOIF(e)
				return
			}
			if e.SuppressedUntil > now {
				return
			}
			add(e.IIF, e.UpstreamNeighbor, g,
				pimmsg.Addr{Addr: e.RP, WC: true, RP: true}, false)
			// §3.3 fn. 13: negative caches upstream are kept alive by
			// periodic prunes traveling with the shared-tree refresh.
			for _, s := range r.rptPrunesToRefresh(g, e) {
				add(e.IIF, e.UpstreamNeighbor, g,
					pimmsg.Addr{Addr: s, RP: true}, true)
			}
		case e.Key.RPBit:
			// Negative-cache entries are refreshed from downstream; they
			// originate nothing themselves.
		default: // (S,G) shortest-path entry
			if !r.sgEffectivelyEmpty(e) {
				e.DeleteAt = 0 // revived through the inherited list
			}
			if r.sgEffectivelyEmpty(e) || e.DeleteAt != 0 {
				r.checkEmptyOIF(e)
				return
			}
			if e.SuppressedUntil > now {
				return
			}
			add(e.IIF, e.UpstreamNeighbor, g, pimmsg.Addr{Addr: e.Key.Source}, false)
		}
	})

	for i := 0; i < nb; i++ {
		d := &r.jpBatch[i]
		m := &r.jpMsg
		m.UpstreamNeighbor = d.upstream
		m.HoldTime = r.Cfg.holdTimeSeconds()
		m.Groups = m.Groups[:0]
		for j := range d.recs {
			rec := &d.recs[j]
			m.Groups = append(m.Groups, pimmsg.GroupRecord{Group: rec.g, Joins: rec.joins, Prunes: rec.prunes})
		}
		r.transmitJoinPrune(d.iface, m)
	}
}

// rptPrunesToRefresh returns the sources whose shared-tree prunes this
// router must keep refreshing toward the RP: sources it switched to an SPT
// with a divergent incoming interface (§3.3), and sources whose negative
// cache covers every remaining shared-tree oif (full-branch prune
// propagation).
// The result lives in per-router scratch reused across refreshes; callers
// consume it before the next call.
func (r *Router) rptPrunesToRefresh(g addr.IP, wc *mfib.Entry) []addr.IP {
	now := r.Now()
	r.rptScratch = r.rptScratch[:0]
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		switch {
		case e.Wildcard:
		case e.Key.RPBit:
			if r.rptCoversSharedOifs(e, wc) && !containsIP(r.rptScratch, e.Key.Source) {
				r.rptScratch = append(r.rptScratch, e.Key.Source)
			}
		default:
			if e.SPTBit && e.IIF != wc.IIF && !e.OIFEmpty(now) && !containsIP(r.rptScratch, e.Key.Source) {
				r.rptScratch = append(r.rptScratch, e.Key.Source)
			}
		}
	})
	return r.rptScratch
}

// containsIP is the linear dedup over the handful of sources a group
// refreshes; a map here would allocate every period.
func containsIP(s []addr.IP, a addr.IP) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// rptCoversSharedOifs reports whether the negative cache prunes every live
// shared-tree oif, meaning no downstream branch still wants the source via
// the RP tree and the prune should propagate upstream.
func (r *Router) rptCoversSharedOifs(rpt, wc *mfib.Entry) bool {
	now := r.Now()
	any := false
	for i := 0; i < wc.OIFCount(); i++ {
		wo := wc.OIFAt(i)
		if !wo.Live(now) {
			continue
		}
		any = true
		o := rpt.OIF(wo.Iface.Index)
		if o == nil || !o.Live(now) || o.PrunePending {
			return false
		}
	}
	return any
}

// rpUnreachable reports whether an entry's current RP can no longer be
// used: no unicast route exists or the incoming interface is down.
func (r *Router) rpUnreachable(e *mfib.Entry) bool {
	if e.IIF != nil && !e.IIF.Up() {
		return true
	}
	if r.Node.OwnsAddr(e.RP) {
		return false
	}
	_, _, ok := r.rpf(e.RP)
	if !ok {
		return true
	}
	return false
}

// sgEffectivelyEmpty reports whether an (S,G) entry forwards to nothing:
// both its own outgoing list and the inherited shared-tree list are empty.
// At the RP the entry is held open while (*,G) exists — "data packets will
// continue to travel from the source to the RP(s) in order to reach new
// receivers" (§3.10).
func (r *Router) sgEffectivelyEmpty(e *mfib.Entry) bool {
	wc := r.MFIB.Wildcard(e.Key.Group)
	if wc != nil && r.Node.OwnsAddr(wc.RP) {
		return false
	}
	return len(r.unionOIFs(e, wc, e.Key.Source, nil)) == 0
}

// checkEmptyOIF handles the §3.6 rule: when an entry's outgoing interface
// list goes null, a prune is sent upstream and the entry is deleted after
// 3× the refresh period.
func (r *Router) checkEmptyOIF(e *mfib.Entry) {
	now := r.Now()
	if e.DeleteAt != 0 {
		return
	}
	if e.Wildcard || e.Key.RPBit {
		if !e.OIFEmpty(now) {
			return
		}
	} else if !r.sgEffectivelyEmpty(e) {
		return
	}
	e.DeleteAt = now + r.Cfg.holdTime()
	a := pimmsg.Addr{Addr: upstreamTarget(e), WC: e.Wildcard, RP: e.Wildcard}
	if !e.Wildcard {
		a = pimmsg.Addr{Addr: e.Key.Source}
	}
	r.sendJoinPrune(e.IIF, e.UpstreamNeighbor, e.Key.Group, nil, []pimmsg.Addr{a})
}

// maintain sweeps expired state and empty negative caches each refresh
// period.
func (r *Router) maintain() {
	now := r.Now()
	swept := r.MFIB.Sweep(now)
	if r.Telemetry() != nil {
		for _, e := range swept {
			r.Emit(telemetry.Event{
				Kind: telemetry.EntryExpire, Iface: -1, Source: e.Key.Source, Group: e.Key.Group,
				Value: entryKind(e.Key),
			})
		}
	}
	// Negative caches with no live pruned interface have no reason to
	// exist; their upstream copies expire the same way.
	var dead []mfib.Key
	r.MFIB.ForEach(func(e *mfib.Entry) {
		if e.Key.RPBit && !e.Wildcard && e.OIFEmpty(now) {
			dead = append(dead, e.Key)
		}
		if !e.Key.RPBit && !e.Wildcard && r.sgEffectivelyEmpty(e) {
			r.checkEmptyOIF(e)
		}
		if e.Wildcard && e.OIFEmpty(now) {
			r.checkEmptyOIF(e)
		}
	})
	for _, k := range dead {
		r.deleteEntry(k)
	}
}

// --- Receiving (§3.2, §3.6, §3.7) ---

func (r *Router) handleJoinPrune(in *netsim.Iface, body []byte) {
	// Decode into the router's scratch: the record slices are recycled
	// between messages, and nothing below retains them past this call.
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil {
		return
	}
	if m.UpstreamNeighbor == in.Addr {
		r.processJoinPrune(in, m)
		return
	}
	// Overheard on a LAN: §3.7 prune override and join suppression.
	if in.Link != nil && in.Link.IsLAN() {
		r.overhearJoinPrune(in, m)
	}
}

func (r *Router) processJoinPrune(in *netsim.Iface, m *pimmsg.JoinPrune) {
	if r.Telemetry() != nil {
		r.Emit(telemetry.Event{
			Kind: telemetry.JoinPruneRecv, Iface: in.Index, Value: int64(len(m.Groups)),
		})
	}
	hold := netsim.Time(m.HoldTime) * netsim.Second
	for _, grp := range m.Groups {
		g := grp.Group
		for _, a := range grp.Joins {
			switch {
			case a.WC && a.RP:
				r.joinShared(in, g, a.Addr, hold)
			case a.RP:
				r.cancelNegativeCache(in, g, r.sourceKey(a.Addr))
			default:
				r.joinSPT(in, g, r.sourceKey(a.Addr), hold)
			}
		}
		for _, a := range grp.Prunes {
			switch {
			case a.WC && a.RP:
				r.pruneShared(in, g)
			case a.RP:
				r.pruneSourceOnShared(in, g, r.sourceKey(a.Addr), hold)
			default:
				r.pruneSPT(in, g, r.sourceKey(a.Addr))
			}
		}
	}
}

// joinShared installs/refreshes (*,G) state for a downstream join with the
// WC and RP bits (§3.2).
func (r *Router) joinShared(in *netsim.Iface, g, rp addr.IP, hold netsim.Time) {
	now := r.Now()
	wc, created := r.upsert(mfib.Key{Group: g, RPBit: true}, now)
	if created {
		wc.RP = rp
		if _, ok := r.rpMap[g]; !ok {
			// Learn the group's RP from the join so this transit router
			// can keep propagating state for it.
			r.rpMap[g] = []addr.IP{rp}
		}
		r.setUpstream(wc, rp)
	} else if rp != wc.RP && r.rpUnreachable(wc) {
		// §3.9 fail-over seen from a transit router: downstream joins now
		// chase an alternate RP and the old one is gone, so adopt the new
		// RP and re-anchor the tree toward it.
		wc.RP = rp
		r.setUpstream(wc, rp)
		created = true // trigger an upstream join below
	}
	wc.AddOIF(in, now+hold)
	// The arrival interface can never be both iif and oif.
	if wc.IIF == in {
		wc.RemoveOIF(in)
		return
	}
	// A (*,G) join re-opens the shared tree on this interface for all
	// sources: cancel negative-cache prunes recorded against it.
	r.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if e.Key.RPBit && !e.Wildcard {
			e.RemoveOIF(in)
		}
	})
	if created {
		r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g,
			[]pimmsg.Addr{{Addr: rp, WC: true, RP: true}}, nil)
	}
}

// joinSPT installs/refreshes (S,G) shortest-path state (§3.3).
func (r *Router) joinSPT(in *netsim.Iface, g, s addr.IP, hold netsim.Time) {
	now := r.Now()
	sg, created := r.upsert(mfib.Key{Source: s, Group: g}, now)
	if created {
		if rp, ok := r.rpFor(g); ok {
			sg.RP = rp
		}
		r.setUpstream(sg, s)
	}
	sg.AddOIF(in, now+hold)
	if sg.IIF == in {
		sg.RemoveOIF(in)
		return
	}
	if created {
		r.sendJoinPrune(sg.IIF, sg.UpstreamNeighbor, g,
			[]pimmsg.Addr{{Addr: s}}, nil)
	}
}

// cancelNegativeCache handles a join with only the RP bit: downstream wants
// the source via the shared tree again.
func (r *Router) cancelNegativeCache(in *netsim.Iface, g, s addr.IP) {
	rpt := r.MFIB.SGRpt(s, g)
	if rpt == nil {
		return
	}
	rpt.RemoveOIF(in)
	if rpt.OIFEmpty(r.Now()) {
		r.deleteEntry(rpt.Key)
		// Propagate the cancellation so upstream negative caches clear
		// promptly rather than waiting for expiry.
		if wc := r.MFIB.Wildcard(g); wc != nil {
			r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g,
				[]pimmsg.Addr{{Addr: s, RP: true}}, nil)
		}
	}
}

// pruneShared removes a downstream interface from (*,G) (§3.6), honoring
// the LAN override window (§3.7).
func (r *Router) pruneShared(in *netsim.Iface, g addr.IP) {
	wc := r.MFIB.Wildcard(g)
	if wc == nil {
		return
	}
	o := wc.OIF(in.Index)
	if o == nil {
		return
	}
	r.scheduleOIFPrune(wc, o, in, func(e *mfib.Entry) {
		e.RemoveOIF(in)
		r.checkEmptyOIF(e)
	})
}

// pruneSPT removes a downstream interface from (S,G).
func (r *Router) pruneSPT(in *netsim.Iface, g, s addr.IP) {
	sg := r.MFIB.SG(s, g)
	if sg == nil {
		return
	}
	o := sg.OIF(in.Index)
	if o == nil {
		return
	}
	r.scheduleOIFPrune(sg, o, in, func(e *mfib.Entry) {
		e.RemoveOIF(in)
		r.checkEmptyOIF(e)
	})
}

// scheduleOIFPrune applies a prune immediately on point-to-point links and
// after the override window on LANs, unless a join cancels it first. The
// deferred path must not capture the entry or oif pointers across the
// delay: oif storage moves under structural list mutation and the entry may
// be deleted and re-created meanwhile, so the closure re-looks it up by key,
// checks Life() to reject a deleted-and-recreated incarnation, and tests
// the prune-pending state on whatever oif the interface has now (a join in
// the window clears PrunePending, which cancels the prune exactly as the
// old pointer-identity check did).
func (r *Router) scheduleOIFPrune(e *mfib.Entry, o *mfib.OIF, in *netsim.Iface, apply func(*mfib.Entry)) {
	if in.Link == nil || !in.Link.IsLAN() {
		apply(e)
		return
	}
	now := r.Now()
	o.PrunePending = true
	o.PruneDeadline = now + r.Cfg.PruneOverrideDelay
	e.Touch()
	key, life := e.Key, e.Life()
	r.After(r.Cfg.PruneOverrideDelay, func() {
		cur := r.MFIB.Get(key)
		if cur == nil || cur.Life() != life {
			return
		}
		if co := cur.OIF(in.Index); co != nil && co.PrunePending && r.Now() >= co.PruneDeadline {
			apply(cur)
		}
	})
}

// pruneSourceOnShared handles a prune with the RP bit: source S is pruned
// from the shared tree on the arriving interface, recorded as negative
// cache (§3.3 fn. 11).
func (r *Router) pruneSourceOnShared(in *netsim.Iface, g, s addr.IP, hold netsim.Time) {
	now := r.Now()
	wc := r.MFIB.Wildcard(g)
	if wc == nil || !wc.HasOIF(in, now) {
		return
	}
	rpt, created := r.upsert(mfib.Key{Source: s, Group: g, RPBit: true}, now)
	if created {
		rpt.RP = wc.RP
		rpt.IIF, rpt.UpstreamNeighbor = wc.IIF, wc.UpstreamNeighbor
	}
	o := rpt.AddOIF(in, now+hold) // "pruned" membership, kept alive by prune refreshes
	if in.Link != nil && in.Link.IsLAN() {
		// Effective only after the override window (§3.7); an overheard
		// join with the RP bit cancels it via cancelNegativeCache. The
		// closure re-looks both entries up: pointers must not be held
		// across the delay (see scheduleOIFPrune).
		o.PrunePending = true
		o.PruneDeadline = now + r.Cfg.PruneOverrideDelay
		rpt.Touch()
		rptKey, rptLife := rpt.Key, rpt.Life()
		r.After(r.Cfg.PruneOverrideDelay, func() {
			cur := r.MFIB.Get(rptKey)
			if cur == nil || cur.Life() != rptLife {
				return
			}
			co := cur.OIF(in.Index)
			if co == nil || !co.PrunePending || r.Now() < co.PruneDeadline {
				return
			}
			co.PrunePending = false
			cur.Touch()
			if wcNow := r.MFIB.Wildcard(g); wcNow != nil {
				r.propagateRptPrune(g, s, cur, wcNow)
			}
		})
		return
	}
	r.propagateRptPrune(g, s, rpt, wc)
}

// propagateRptPrune forwards the negative-cache prune toward the RP when no
// shared-tree branch still needs the source.
func (r *Router) propagateRptPrune(g, s addr.IP, rpt, wc *mfib.Entry) {
	if r.rptCoversSharedOifs(rpt, wc) {
		r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g, nil,
			[]pimmsg.Addr{{Addr: s, RP: true}})
	}
}

// overhearJoinPrune implements the LAN behaviour of §3.7 for messages
// addressed to another upstream router.
func (r *Router) overhearJoinPrune(in *netsim.Iface, m *pimmsg.JoinPrune) {
	now := r.Now()
	for _, grp := range m.Groups {
		g := grp.Group
		// Join suppression: an identical overheard join postpones ours.
		for _, a := range grp.Joins {
			var e *mfib.Entry
			switch {
			case a.WC && a.RP:
				e = r.MFIB.Wildcard(g)
			case !a.WC && !a.RP:
				e = r.MFIB.SG(a.Addr, g)
			}
			if e != nil && e.IIF == in && e.UpstreamNeighbor == m.UpstreamNeighbor {
				e.SuppressedUntil = now + r.Cfg.JoinPruneInterval - r.Cfg.PruneOverrideDelay
			}
		}
		// Prune override: if we still need the state being pruned, send a
		// join to the same upstream before the override window closes.
		for _, a := range grp.Prunes {
			switch {
			case a.WC && a.RP:
				if wc := r.MFIB.Wildcard(g); wc != nil && wc.IIF == in &&
					!wc.OIFEmpty(now) && wc.UpstreamNeighbor == m.UpstreamNeighbor {
					r.sendJoinPrune(in, m.UpstreamNeighbor, g,
						[]pimmsg.Addr{{Addr: wc.RP, WC: true, RP: true}}, nil)
				}
			case a.RP:
				wc := r.MFIB.Wildcard(g)
				if wc != nil && wc.IIF == in && !wc.OIFEmpty(now) &&
					wc.UpstreamNeighbor == m.UpstreamNeighbor &&
					r.MFIB.SGRpt(a.Addr, g) == nil && r.wantsSourceViaShared(g, a.Addr) {
					r.sendJoinPrune(in, m.UpstreamNeighbor, g,
						[]pimmsg.Addr{{Addr: a.Addr, RP: true}}, nil)
				}
			default:
				if sg := r.MFIB.SG(a.Addr, g); sg != nil && sg.IIF == in &&
					!sg.OIFEmpty(now) && sg.UpstreamNeighbor == m.UpstreamNeighbor {
					r.sendJoinPrune(in, m.UpstreamNeighbor, g,
						[]pimmsg.Addr{{Addr: a.Addr}}, nil)
				}
			}
		}
	}
}

// wantsSourceViaShared reports whether this router still depends on the
// shared tree for the source (it has not completed an SPT switch for it).
func (r *Router) wantsSourceViaShared(g, s addr.IP) bool {
	sg := r.MFIB.SG(s, g)
	return sg == nil || !sg.SPTBit
}
