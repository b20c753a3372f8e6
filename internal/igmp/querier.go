package igmp

import (
	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
)

// Default protocol timing (scaled paper/RFC values).
const (
	DefaultQueryInterval      = 60 * netsim.Second
	DefaultMembershipHoldTime = 150 * netsim.Second // 2.5 × query interval
)

// Querier is the router side of IGMP for one node: it queries every
// interface, tracks which groups have local members per interface, learns
// G→RP mappings from RPMap host messages, and notifies the multicast routing
// protocol of membership changes.
type Querier struct {
	Node          *netsim.Node
	QueryInterval netsim.Time
	HoldTime      netsim.Time

	// OnJoin/OnLeave fire when the first member appears / last member
	// disappears for a group on an interface.
	OnJoin  func(ifc *netsim.Iface, group addr.IP)
	OnLeave func(ifc *netsim.Iface, group addr.IP)
	// OnRPMap fires when a host pushes a group→RP mapping.
	OnRPMap func(group addr.IP, rps []addr.IP)

	// Lifecycle carries the start/stop state, the epoch guard on the query
	// tick, and the telemetry bus (see internal/engine).
	engine.Lifecycle

	// members[ifaceIndex][group] = expiry time.
	members map[int]map[addr.IP]netsim.Time

	// enc is the reusable query encode workspace (see core.Router.enc):
	// safe because Node.Send copies the payload into its transmit frame
	// before returning. dec is the decode scratch, valid only within one
	// handle call; the RPMap path copies the RPs slice out of it before
	// handing it to OnRPMap, which may retain it.
	enc packet.Scratch
	dec Message
}

// NewQuerier attaches the router side of IGMP to a node.
func NewQuerier(nd *netsim.Node) *Querier {
	return &Querier{
		Lifecycle:     engine.New(nd),
		Node:          nd,
		QueryInterval: DefaultQueryInterval,
		HoldTime:      DefaultMembershipHoldTime,
		members:       map[int]map[addr.IP]netsim.Time{},
	}
}

// Start registers the IGMP handler and begins periodic querying.
func (q *Querier) Start() {
	if !q.Begin(q.memberCount()) {
		return
	}
	q.Node.Handle(packet.ProtoIGMP, netsim.HandlerFunc(q.handle))
	var tick func()
	tick = func() {
		q.expire()
		q.query()
		q.After(q.QueryInterval, tick)
	}
	q.After(0, tick)
}

// Stop detaches the querier and forgets all learned membership. The OnLeave
// callback is deliberately not fired for the discarded groups: a crash takes
// the routing protocol down with it, and the restarted instance re-learns
// membership from host reports to its immediate re-query.
func (q *Querier) Stop() {
	if !q.End(0) {
		return
	}
	q.Node.Handle(packet.ProtoIGMP, nil)
	q.members = map[int]map[addr.IP]netsim.Time{}
}

// memberCount returns the total number of (interface, group) membership
// entries — the querier's learned-state size for the restart invariant.
func (q *Querier) memberCount() int {
	n := 0
	for _, byGroup := range q.members {
		n += len(byGroup)
	}
	return n
}

// Restart brings a stopped querier back empty; the immediate query triggers
// host re-reports that rebuild membership and re-fire OnJoin.
func (q *Querier) Restart() {
	q.Stop()
	q.Start()
}

func (q *Querier) query() {
	msg := Message{Type: TypeQuery}
	q.enc.Buf = msg.MarshalTo(q.enc.Buf[:0])
	for _, ifc := range q.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		q.Node.Send(ifc, q.enc.Packet(ifc.Addr, addr.AllSystems, packet.ProtoIGMP, 1), 0)
	}
}

func (q *Querier) handle(in *netsim.Iface, pkt *packet.Packet) {
	m := &q.dec
	if err := UnmarshalInto(m, pkt.Payload); err != nil {
		return
	}
	switch m.Type {
	case TypeReport:
		if !m.Group.IsMulticast() || m.Group.IsLinkLocalMulticast() {
			return
		}
		q.noteMember(in, m.Group)
	case TypeLeave:
		// Fast leave: the real protocol sends group-specific queries; the
		// simulator trusts the leave and drops membership immediately when
		// no other member reported recently. A conservative implementation
		// would re-query; hosts here re-report on the next query anyway.
		q.dropMember(in, m.Group)
	case TypeRPMap:
		if q.OnRPMap != nil && m.Group.IsMulticast() {
			// The callback may retain the slice (protocols store the
			// mapping), so it gets a copy, not the decode scratch.
			q.OnRPMap(m.Group, append([]addr.IP(nil), m.RPs...))
		}
	}
}

func (q *Querier) noteMember(in *netsim.Iface, g addr.IP) {
	byGroup := q.members[in.Index]
	if byGroup == nil {
		byGroup = map[addr.IP]netsim.Time{}
		q.members[in.Index] = byGroup
	}
	_, had := byGroup[g]
	byGroup[g] = q.Now() + q.HoldTime
	if !had {
		if q.Telemetry() != nil {
			q.Emit(telemetry.Event{Kind: telemetry.MemberJoin, Iface: in.Index, Group: g})
		}
		if q.OnJoin != nil {
			q.OnJoin(in, g)
		}
	}
}

func (q *Querier) dropMember(in *netsim.Iface, g addr.IP) {
	byGroup := q.members[in.Index]
	if byGroup == nil {
		return
	}
	if _, had := byGroup[g]; had {
		delete(byGroup, g)
		if q.Telemetry() != nil {
			q.Emit(telemetry.Event{Kind: telemetry.MemberLeave, Iface: in.Index, Group: g})
		}
		if q.OnLeave != nil {
			q.OnLeave(in, g)
		}
	}
}

func (q *Querier) expire() {
	now := q.Now()
	for idx, byGroup := range q.members {
		for g, deadline := range byGroup {
			if now > deadline {
				delete(byGroup, g)
				if q.Telemetry() != nil {
					q.Emit(telemetry.Event{Kind: telemetry.MemberLeave, Iface: idx, Group: g})
				}
				if q.OnLeave != nil && idx < len(q.Node.Ifaces) {
					q.OnLeave(q.Node.Ifaces[idx], g)
				}
			}
		}
	}
}

// HasMember reports whether the group has a live local member on the
// interface.
func (q *Querier) HasMember(ifc *netsim.Iface, g addr.IP) bool {
	byGroup := q.members[ifc.Index]
	if byGroup == nil {
		return false
	}
	deadline, ok := byGroup[g]
	return ok && q.Now() <= deadline
}

// HasAnyMember reports whether the group has a member on any interface.
func (q *Querier) HasAnyMember(g addr.IP) bool {
	for _, ifc := range q.Node.Ifaces {
		if q.HasMember(ifc, g) {
			return true
		}
	}
	return false
}

// Groups returns the set of groups with live members on any interface.
func (q *Querier) Groups() []addr.IP {
	seen := map[addr.IP]bool{}
	var out []addr.IP
	now := q.Now()
	for _, byGroup := range q.members {
		for g, deadline := range byGroup {
			if now <= deadline && !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	return out
}
