package main

import "pim/internal/netsim"

// receipt counts one member slot's copies of one packet.
type receipt struct {
	n     int32
	first netsim.Time // arrival of the first copy
}

// slot records what one (member, group) pair received, indexed like the
// group's sendAt. A slot is written only from its host's scheduler, so
// sharded runs need no locking.
type slot struct {
	got []receipt
	// strays are copies of packets the schedule never sent to the group.
	strays int64
	// joinedAt is the instant of the last scheduled join still waiting for
	// its first packet, or -1.
	joinedAt  netsim.Time
	firstData []netsim.Time
}

func newSlot(g *group) *slot { return &slot{got: make([]receipt, len(g.sendAt)), joinedAt: -1} }

func (s *slot) join(now netsim.Time) { s.joinedAt = now }
func (s *slot) leave()               { s.joinedAt = -1 }

// receive records one copy of the group's packet sent at sent, arriving at
// now.
func (s *slot) receive(g *group, sent, now netsim.Time) {
	i, ok := g.sendIdx[sent]
	if !ok {
		s.strays++
		return
	}
	r := &s.got[i]
	if r.n == 0 {
		r.first = now
	}
	r.n++
	if s.joinedAt >= 0 {
		s.firstData = append(s.firstData, now-s.joinedAt)
		s.joinedAt = -1
	}
}

// delayBins bounds the first-copy delay histogram: one bin per simulated
// millisecond (link delays are whole milliseconds), the last bin holding
// everything slower.
const delayBins = 2048

// tally is the delivery outcome of one pass, judged against the schedule.
type tally struct {
	expected, ok, dup, strays int64
	// delayMS counts ok pairs by first-copy delay in milliseconds.
	delayMS   [delayBins]int64
	firstData []netsim.Time // join to first packet, per join that saw one
}

// blackouts returns the send instants around link changes during which no
// delivery is expected. An engine that repairs on unicast route changes
// (§3.8) is excused from grace before to settle after each change; one that
// repairs only on its own timers is excused for the whole outage.
func blackouts(fs []flap, repairsOnRouteChange bool) []interval {
	var out []interval
	for _, f := range fs {
		if repairsOnRouteChange {
			out = append(out, interval{f.down - grace, f.down + settle}, interval{f.up - grace, f.up + settle})
		} else {
			out = append(out, interval{f.down - grace, f.up + settle})
		}
	}
	return out
}

// expected reports whether a packet sent at t must reach a member joined
// over the given intervals: the member was joined from settle before the
// send to grace after it, and no blackout covers the send.
func expected(joined []interval, t netsim.Time, black []interval) bool {
	covered := false
	for _, iv := range joined {
		if iv.from <= t-settle && t+grace <= iv.to {
			covered = true
			break
		}
	}
	if !covered {
		return false
	}
	for _, b := range black {
		if b.from <= t && t < b.to {
			return false
		}
	}
	return true
}

// judge tallies the receipts of every member slot of every group against
// the send schedule.
func judge(groups []group, slots [][]*slot, black []interval) tally {
	var t tally
	for gi, g := range groups {
		for mi, m := range g.members {
			sl := slots[gi][mi]
			t.strays += sl.strays
			for i, at := range g.sendAt {
				r := sl.got[i]
				if r.n > 1 {
					t.dup += int64(r.n - 1)
				}
				if !expected(m.joined, at, black) {
					continue
				}
				t.expected++
				if r.n == 0 {
					continue
				}
				t.ok++
				t.delayMS[min(int((r.first-at)/netsim.Millisecond), delayBins-1)]++
			}
			t.firstData = append(t.firstData, sl.firstData...)
		}
	}
	return t
}
