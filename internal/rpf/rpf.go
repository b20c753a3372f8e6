// Package rpf caches reverse-path-forwarding resolutions against the
// unicast routing table.
//
// Every multicast protocol in this repository anchors its behaviour to an
// RPF check (PIM's §3.2 "the interface used to reach the source/RP", DVMRP
// and PIM-DM's per-packet reverse-path test, CBT's path toward the core,
// MOSPF's source-rooted tree side): in steady state the same few
// destinations — sources, RPs, cores — are resolved over and over, once per
// data packet or Join/Prune refresh, while the underlying routes change
// rarely. The cache turns those repeated longest-prefix matches into one
// map probe guarded by one integer compare.
//
// Correctness is anchored to the paper's §3.8: a unicast route change must
// be reflected by the very next RPF check. The unicast Table bumps its
// generation counter on every mutation (Set/Delete/Replace/NotifyChanged),
// and the cache discards everything the moment the observed generation
// differs from the one its entries were computed at — so even a lookup
// performed mid-batch, after a Set but before NotifyChanged has fired the
// OnChange listeners, can never be served a stale result. Negative results
// (no route) are cached too: a source behind a partition would otherwise
// cost a full table miss per packet.
package rpf

import (
	"pim/internal/addr"
	"pim/internal/unicast"
)

// result remembers one resolution, including "no route".
type result struct {
	route unicast.Route
	ok    bool
}

// Cache is a generation-validated memo of Router.Lookup results. It is not
// safe for concurrent use; each simulated router owns one, and the
// simulator is single-threaded per scenario.
type Cache struct {
	uni unicast.Router
	gen uint64 // table generation the entries were resolved at
	m   map[addr.IP]result
}

// New wraps a unicast router with a fresh cache.
func New(uni unicast.Router) *Cache {
	return &Cache{uni: uni, m: make(map[addr.IP]result)}
}

// Lookup resolves the RPF route toward dst. It answers from the cache when
// the table generation is unchanged; otherwise it defers to the underlying
// router.
func (c *Cache) Lookup(dst addr.IP) (unicast.Route, bool) {
	if g := c.uni.Gen(); g != c.gen {
		clear(c.m)
		c.gen = g
	}
	if r, ok := c.m[dst]; ok {
		return r.route, r.ok
	}
	rt, ok := c.uni.Lookup(dst)
	c.m[dst] = result{rt, ok}
	return rt, ok
}

// Router returns the underlying unicast router, for callers that need the
// raw interface (e.g. to register OnChange listeners).
func (c *Cache) Router() unicast.Router { return c.uni }
