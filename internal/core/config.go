// Package core implements the paper's contribution: the Protocol
// Independent Multicast sparse-mode (PIM-SM) router engine of §3.
//
// One Router instance is the complete per-router protocol machine:
//
//   - §3.1–3.2 receiver joins and RP-rooted shared tree setup,
//   - §3   sender registering and rendezvous through the RP,
//   - §3.3 shared-tree → shortest-path-tree switching with the SPT bit,
//   - §3.4 periodic soft-state refresh of join/prune state,
//   - §3.5 data packet forwarding with incoming-interface checks and the
//     two transition exception rules,
//   - §3.6 per-oif timers and entry deletion,
//   - §3.7 multi-access LAN prune override, join suppression, and
//     designated-router election via PIM queries,
//   - §3.8 adaptation to unicast routing changes,
//   - §3.9 multiple RPs and RP fail-over driven by RP-reachability timers.
//
// The router consumes unicast routing exclusively through the
// unicast.Router interface, which is the paper's protocol-independence
// requirement made concrete: the engine runs unmodified over the static
// oracle, the distance-vector protocol, or the link-state protocol.
package core

import (
	"pim/internal/addr"
	"pim/internal/netsim"
)

// SPTPolicy selects when a last-hop router with local members abandons the
// shared tree for a source-rooted shortest-path tree (§3.3: the policy knob
// is explicit — "the first-hop routers of the receivers can make this
// decision independently").
type SPTPolicy int

const (
	// SwitchImmediate joins the SPT on the first data packet seen from a
	// new source via the shared tree.
	SwitchImmediate SPTPolicy = iota
	// SwitchNever stays on the RP-rooted shared tree indefinitely ("the DR
	// may also choose to remain on the RP-distribution tree indefinitely").
	SwitchNever
	// SwitchThreshold joins the SPT after Config.SPTPackets data packets
	// from the source arrive within Config.SPTWindow ("a policy of not
	// setting up an (S,G) entry until it has received m data packets from
	// the source within some interval of n seconds").
	SwitchThreshold
)

// Config carries the per-router protocol parameters. Zero values are
// replaced by the defaults below.
type Config struct {
	// JoinPruneInterval is the soft-state refresh period (§3.4); state
	// installed by a join lives for 3× this (HoldTime).
	JoinPruneInterval netsim.Time
	// QueryInterval paces PIM neighbor queries for DR election (§3.7).
	QueryInterval netsim.Time
	// RPReachInterval paces RP-reachability origination at RPs; receivers
	// fail over to an alternate RP after 3× with no message (§3.9).
	RPReachInterval netsim.Time
	// PruneOverrideDelay is the window a LAN prune stays pending so other
	// routers can override it with a join (§3.7).
	PruneOverrideDelay netsim.Time
	// SPTPolicy, SPTPackets, SPTWindow configure §3.3 switching.
	SPTPolicy  SPTPolicy
	SPTPackets int
	SPTWindow  netsim.Time
	// RPMapping statically maps groups to ordered RP candidate lists ("the
	// mapping information may be configured", §3). Host-supplied RPMap
	// messages (§3.1 fn. 9) extend this at run time.
	RPMapping map[addr.IP][]addr.IP
	// AggregateSources keys all (S,G) state and join/prune messages by the
	// source's /24 subnet instead of the host address — the §4 aggregation
	// direction ("aggregating source information", with "the subnet level
	// supported in the current specification" as the baseline): all senders
	// on one subnet share one forwarding entry and one join/prune list
	// element. Must be enabled uniformly across a domain.
	AggregateSources bool
	// AdvertiseRPMapping makes a router that owns an RP address flood
	// periodic RP-report messages so other routers discover the mapping
	// dynamically instead of by configuration (§4: "dynamically discovered
	// by ... some new PIM RP-report messages"). Learned mappings are cached
	// with a lifetime of 3× RPReachInterval.
	AdvertiseRPMapping bool
}

// Defaults (paper-scaled).
const (
	DefaultJoinPruneInterval  = 60 * netsim.Second
	DefaultQueryInterval      = 30 * netsim.Second
	DefaultRPReachInterval    = 30 * netsim.Second
	DefaultPruneOverrideDelay = 3 * netsim.Second
	DefaultSPTPackets         = 10
	DefaultSPTWindow          = 10 * netsim.Second
)

func (c *Config) fillDefaults() {
	if c.JoinPruneInterval == 0 {
		c.JoinPruneInterval = DefaultJoinPruneInterval
	}
	if c.QueryInterval == 0 {
		c.QueryInterval = DefaultQueryInterval
	}
	if c.RPReachInterval == 0 {
		c.RPReachInterval = DefaultRPReachInterval
	}
	if c.PruneOverrideDelay == 0 {
		c.PruneOverrideDelay = DefaultPruneOverrideDelay
	}
	if c.SPTPackets == 0 {
		c.SPTPackets = DefaultSPTPackets
	}
	if c.SPTWindow == 0 {
		c.SPTWindow = DefaultSPTWindow
	}
	if c.RPMapping == nil {
		c.RPMapping = map[addr.IP][]addr.IP{}
	}
}

// holdTime is the state lifetime granted by one join (3× refresh, §3.6).
func (c *Config) holdTime() netsim.Time { return 3 * c.JoinPruneInterval }

// holdTimeSeconds converts holdTime to the wire's seconds field.
func (c *Config) holdTimeSeconds() uint16 {
	s := c.holdTime() / netsim.Second
	if s < 1 {
		s = 1
	}
	if s > 0xFFFF {
		s = 0xFFFF
	}
	return uint16(s)
}
