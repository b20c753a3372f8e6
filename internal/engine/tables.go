package engine

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// Neighbors is a neighbor-liveness table learned from periodic hellos (PIM
// queries, DVMRP probes): per interface index, each neighbor's address and
// the time its hold expires. A neighbor is live until that time. The zero
// value is an empty table.
type Neighbors struct {
	byIface map[int]map[addr.IP]netsim.Time
	dead    []neighborKey
}

type neighborKey struct {
	iface int
	a     addr.IP
}

// Hear records a hello from a on iface, live until deadline. known reports
// whether a was in the table, live or not; live whether it was live at now.
func (t *Neighbors) Hear(iface int, a addr.IP, now, deadline netsim.Time) (known, live bool) {
	if t.byIface == nil {
		t.byIface = map[int]map[addr.IP]netsim.Time{}
	}
	byAddr := t.byIface[iface]
	if byAddr == nil {
		byAddr = map[addr.IP]netsim.Time{}
		t.byIface[iface] = byAddr
	}
	prev, known := byAddr[a]
	byAddr[a] = deadline
	return known, known && now <= prev
}

// Expire removes every neighbor whose hold ran out before now and calls
// down, when non-nil, for each in (iface, address) order: a sweep can expire
// several neighbors at once (simultaneous link failures), and map order would
// make whatever down publishes nondeterministic.
func (t *Neighbors) Expire(now netsim.Time, down func(iface int, a addr.IP)) {
	t.dead = t.dead[:0]
	for idx, byAddr := range t.byIface {
		for a, deadline := range byAddr {
			if now > deadline {
				t.dead = append(t.dead, neighborKey{idx, a})
			}
		}
	}
	if down != nil {
		slices.SortFunc(t.dead, func(x, y neighborKey) int {
			if x.iface != y.iface {
				return x.iface - y.iface
			}
			switch {
			case x.a < y.a:
				return -1
			case x.a > y.a:
				return 1
			}
			return 0
		})
	}
	for _, k := range t.dead {
		delete(t.byIface[k.iface], k.a)
		if down != nil {
			down(k.iface, k.a)
		}
	}
}

// Live reports whether a is a live neighbor on iface.
func (t *Neighbors) Live(iface int, a addr.IP, now netsim.Time) bool {
	deadline, ok := t.byIface[iface][a]
	return ok && now <= deadline
}

// Leaf reports whether iface has no live neighbor.
func (t *Neighbors) Leaf(iface int, now netsim.Time) bool {
	for _, deadline := range t.byIface[iface] {
		if now <= deadline {
			return false
		}
	}
	return true
}

// Above reports whether iface has a live neighbor with an address above a
// (designated-router election: the highest address wins).
func (t *Neighbors) Above(iface int, a addr.IP, now netsim.Time) bool {
	for n, deadline := range t.byIface[iface] {
		if now <= deadline && n > a {
			return true
		}
	}
	return false
}

// List returns the live neighbors on iface, sorted.
func (t *Neighbors) List(iface int, now netsim.Time) []addr.IP {
	var out []addr.IP
	for a, deadline := range t.byIface[iface] {
		if now <= deadline {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// Count returns the number of live neighbors across all interfaces.
func (t *Neighbors) Count(now netsim.Time) int {
	n := 0
	for _, byAddr := range t.byIface {
		for _, deadline := range byAddr {
			if now <= deadline {
				n++
			}
		}
	}
	return n
}

// Reset empties the table (Stop discards neighbor liveness).
func (t *Neighbors) Reset() { t.byIface = nil }

// Members is the local-member set the IGMP querier feeds an engine: per
// interface index, the groups with members on it. The zero value is an empty
// set.
type Members struct {
	byIface map[int]map[addr.IP]bool
}

// Add records a member of g on iface.
func (m *Members) Add(iface int, g addr.IP) {
	if m.byIface == nil {
		m.byIface = map[int]map[addr.IP]bool{}
	}
	byGroup := m.byIface[iface]
	if byGroup == nil {
		byGroup = map[addr.IP]bool{}
		m.byIface[iface] = byGroup
	}
	byGroup[g] = true
}

// Remove forgets the members of g on iface.
func (m *Members) Remove(iface int, g addr.IP) { delete(m.byIface[iface], g) }

// Has reports whether g has members on iface.
func (m *Members) Has(iface int, g addr.IP) bool { return m.byIface[iface][g] }

// Any reports whether g has members on any interface.
func (m *Members) Any(g addr.IP) bool {
	for _, byGroup := range m.byIface {
		if byGroup[g] {
			return true
		}
	}
	return false
}

// Groups appends the groups with members on any interface to buf[:0],
// sorted and without duplicates, and returns it. Pass a reused buffer to
// allocate nothing, or nil for a fresh slice a caller may keep.
func (m *Members) Groups(buf []addr.IP) []addr.IP {
	out := buf[:0]
	for _, byGroup := range m.byIface {
		for g := range byGroup {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Reset empties the set (Stop discards local membership).
func (m *Members) Reset() { m.byIface = nil }
