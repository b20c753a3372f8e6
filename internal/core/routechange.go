package core

import (
	"pim/internal/mfib"
	"pim/internal/pimmsg"
)

// routesChanged is the §3.8 adaptation: when unicast routing changes, every
// entry's RPF interface is re-checked. A moved incoming interface is
// removed from the outgoing list if it appears there, a join is sent out
// the new interface to draw the distribution tree over it, and a prune is
// sent over the old interface (if still operational) to release the stale
// branch.
func (r *Router) routesChanged() {
	now := r.Now()
	r.MFIB.ForEach(func(e *mfib.Entry) {
		target := upstreamTarget(e)
		if target == 0 || r.Node.OwnsAddr(target) {
			return
		}
		newIIF, newUp, ok := r.rpf(target)
		if !ok {
			// Target unreachable: keep the state; soft-state expiry or RP
			// fail-over (§3.9) resolves it.
			return
		}
		if newIIF == e.IIF && newUp == e.UpstreamNeighbor {
			return
		}
		oldIIF, oldUp := e.IIF, e.UpstreamNeighbor
		e.IIF, e.UpstreamNeighbor = newIIF, newUp
		e.Touch()

		// Negative caches just follow the new shared-tree interface; their
		// prune refreshes flow along the new path on the next cycle.
		if e.Key.RPBit && !e.Wildcard {
			return
		}

		// "If the new incoming interface appears in the outgoing interface
		// list, it is deleted from the outgoing list." (§3.8)
		if newIIF != nil {
			e.RemoveOIF(newIIF)
		}
		if e.OIFEmpty(now) {
			r.checkEmptyOIF(e)
			return
		}

		a := pimmsg.Addr{Addr: target, WC: e.Wildcard, RP: e.Wildcard}
		// Join out the new interface so upstream routers expect us.
		r.sendJoinPrune(newIIF, newUp, e.Key.Group, []pimmsg.Addr{a}, nil)
		// Prune over the old interface if the link still works.
		if oldIIF != nil && oldUp != 0 && oldIIF.Up() {
			r.sendJoinPrune(oldIIF, oldUp, e.Key.Group, nil, []pimmsg.Addr{a})
		}
	})
}
