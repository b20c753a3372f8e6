package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/topology"
)

// proto names one multicast engine a workload runs.
type proto string

const (
	pimSM proto = "pim-sm"
	pimDM proto = "pim-dm"
	dvmrp proto = "dvmrp"
	mospf proto = "mospf"
	cbt   proto = "cbt"
)

// spec is one named workload: a fixed simulated span run, protocol by
// protocol, on inputs generated from the seed.
type spec struct {
	name            string
	why             string
	routers, groups int
	// members receivers and senders sources per group, on distinct routers.
	members, senders int
	// interval is each sender's packet spacing; window is the measured
	// span (see the timeline constants).
	interval, window netsim.Time
	protocols        []proto
	// shardCheck makes the traced run also simulate the inputs on
	// checkShards shards: the sharded core must reproduce the sequential
	// outcome, and its per-shard counters are reported.
	shardCheck bool
	churn      *churnSpec
}

// Every workload's internet is a random graph of this average degree with
// uniform edge delays in [minDelay, maxDelay] ms, and runs on one timeline:
// hosts join at joinAt, senders start at warmup, the measured window
// follows and the run drains for grace afterwards. Dense-mode prunes last
// pruneLife.
const (
	degree             = 4
	minDelay, maxDelay = 1, 20
	joinAt             = 2 * netsim.Second
	warmup             = 5 * netsim.Second
	pruneLife          = 60 * netsim.Second
	checkShards        = 2
)

// churnSpec adds membership flips, sender on/off periods and backbone link
// flaps to a workload's steady state.
type churnSpec struct {
	// flipsPerSec membership toggles, spread uniformly over the window.
	flipsPerSec float64
	// Each sender alternates on and off periods drawn from these ranges.
	onMin, onMax, offMin, offMax netsim.Time
	// flaps backbone links go down for flapDown each, at evenly spaced
	// instants inside the window.
	flaps    int
	flapDown netsim.Time
}

// span returns the total simulated time one protocol pass runs.
func (s *spec) span() netsim.Time { return warmup + s.window + grace }

// Delivery-window constants: a (packet, member) pair is expected only when
// the member was joined from settle before the send until grace after it,
// and no link changed state inside the window around the send (see
// ledger.expected).
const (
	settle = 2 * netsim.Second
	grace  = 1 * netsim.Second
)

// sliceLen is the simulated length of one timed run slice: host time per
// slice gives the ms-per-simulated-second distribution, and the live heap
// is read at every slice boundary.
const sliceLen = 250 * netsim.Millisecond

var workloads = []*spec{
	{
		name:    "sparse-sm",
		why:     "PIM-SM with SPT switchover on a 1000-router internet, 48 groups: the paper's sparse wide-area target; data forwarding and the unicast table build dominate",
		routers: 1000, groups: 48, members: 5, senders: 2,
		interval: 100 * netsim.Millisecond, window: 120 * netsim.Second,
		protocols: []proto{pimSM}, shardCheck: true,
	},
	{
		name:    "dense-flood",
		why:     "PIM-DM, DVMRP and MOSPF on 300 routers, 48 groups with 60 s prune lifetime: the flood-and-prune and membership-flood cost the paper argues against",
		routers: 300, groups: 48, members: 4, senders: 1,
		interval: 1500 * netsim.Millisecond, window: 70 * netsim.Second,
		protocols: []proto{pimDM, dvmrp, mospf},
	},
	{
		name:    "churn-flap",
		why:     "PIM-SM then CBT on 300 routers with membership flips, sender on/off periods and a link flap: state writes and route recomputation",
		routers: 300, groups: 32, members: 6, senders: 2,
		interval: 50 * netsim.Millisecond, window: 60 * netsim.Second,
		protocols: []proto{pimSM, cbt},
		churn: &churnSpec{
			flipsPerSec: 6,
			onMin:       8 * netsim.Second, onMax: 20 * netsim.Second,
			offMin: 3 * netsim.Second, offMax: 8 * netsim.Second,
			flaps: 1, flapDown: 10 * netsim.Second,
		},
	},
}

func findWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// interval is a half-open span of simulated time.
type interval struct{ from, to netsim.Time }

// member is one (router, group) receiver slot and when it is joined.
type member struct {
	router int
	joined []interval // sorted, disjoint
}

// sender is one (router, group) source and its send instants.
type sender struct {
	router int
	sends  []netsim.Time // sorted
}

type group struct {
	addr    addr.IP
	rp      int // router index of the RP / CBT core
	members []member
	senders []sender
	// sendAt lists every send instant of the group in time order; sendIdx
	// inverts it. Instants are unique per group, so a packet's send stamp
	// identifies it.
	sendAt  []netsim.Time
	sendIdx map[netsim.Time]int
}

// index builds sendAt and sendIdx from the senders' schedules.
func (g *group) index() {
	g.sendAt = g.sendAt[:0]
	for _, sd := range g.senders {
		g.sendAt = append(g.sendAt, sd.sends...)
	}
	slices.Sort(g.sendAt)
	g.sendIdx = make(map[netsim.Time]int, len(g.sendAt))
	for i, at := range g.sendAt {
		g.sendIdx[at] = i
	}
}

// flap takes one backbone edge down and back up.
type flap struct {
	edge     int
	down, up netsim.Time
}

// inputs is everything a pass receives: the topology parameters and seed,
// and the membership, send and link-change schedule.
type inputs struct {
	gen       topology.GenConfig
	graphSeed int64
	groups    []group
	flaps     []flap
}

// makeInputs derives a workload's inputs from the seed alone.
func makeInputs(s *spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		gen:       topology.GenConfig{Nodes: s.routers, Degree: degree, MinDelay: minDelay, MaxDelay: maxDelay},
		graphSeed: rng.Int63(),
	}
	end := warmup + s.window
	for gi := 0; gi < s.groups; gi++ {
		picked := topology.PickDistinct(s.routers, s.members+s.senders, rng)
		rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		g := group{addr: addr.GroupForIndex(gi), rp: picked[0]}
		for _, r := range picked[:s.members] {
			g.members = append(g.members, member{router: r, joined: []interval{{joinAt, forever}}})
		}
		for si, r := range picked[s.members:] {
			// A random phase inside the interval, plus a per-sender
			// microsecond tag, makes (group, send instant) identify the
			// sender even when two senders share an address.
			phase := netsim.Time(rng.Int63n(int64(s.interval/netsim.Millisecond)))*netsim.Millisecond +
				netsim.Time(si+1)*netsim.Microsecond
			on := []interval{{warmup, end}}
			if s.churn != nil {
				on = onPeriods(rng, s.churn, warmup, end)
			}
			sd := sender{router: r}
			for _, p := range on {
				for t := warmup + phase; t < p.to; t += s.interval {
					if t >= p.from {
						sd.sends = append(sd.sends, t)
					}
				}
			}
			g.senders = append(g.senders, sd)
		}
		g.index()
		in.groups = append(in.groups, g)
	}
	if s.churn != nil {
		flips(rng, s, in.groups)
		in.flaps = flaps(rng, s, in)
	}
	return in
}

// forever closes a membership interval that never ends.
const forever = netsim.Time(1<<62 - 1)

// onPeriods draws alternating on/off sender periods covering [from, to),
// starting on.
func onPeriods(rng *rand.Rand, c *churnSpec, from, to netsim.Time) []interval {
	draw := func(lo, hi netsim.Time) netsim.Time {
		return lo + netsim.Time(rng.Int63n(int64(hi-lo)/int64(netsim.Millisecond)+1))*netsim.Millisecond
	}
	var out []interval
	for t := from; t < to; {
		end := min(t+draw(c.onMin, c.onMax), to)
		out = append(out, interval{t, end})
		t = end + draw(c.offMin, c.offMax)
	}
	return out
}

// flips toggles random member slots at a steady rate over the window, each
// flip at a whole millisecond.
func flips(rng *rand.Rand, s *spec, groups []group) {
	n := int(s.churn.flipsPerSec * s.window.Seconds())
	if n == 0 {
		return
	}
	type slot struct{ g, m int }
	var slots []slot
	for gi := range groups {
		for mi := range groups[gi].members {
			slots = append(slots, slot{gi, mi})
		}
	}
	step := s.window / netsim.Time(n)
	for i := 0; i < n; i++ {
		at := warmup + netsim.Time(i)*step + netsim.Time(rng.Int63n(int64(step/netsim.Millisecond)))*netsim.Millisecond
		sl := slots[rng.Intn(len(slots))]
		m := &groups[sl.g].members[sl.m]
		last := &m.joined[len(m.joined)-1]
		if last.to == forever && at > last.from {
			last.to = at // leave
		} else if last.to != forever {
			m.joined = append(m.joined, interval{at, forever}) // rejoin
		}
	}
}

// flaps picks distinct backbone edges whose loss keeps the graph connected
// and schedules each down and up once, evenly spaced over the window.
func flaps(rng *rand.Rand, s *spec, in *inputs) []flap {
	g := topology.Random(in.gen, rand.New(rand.NewSource(in.graphSeed)))
	perm := rng.Perm(g.M())
	var out []flap
	spacing := s.window / netsim.Time(s.churn.flaps+1)
	for _, e := range perm {
		if len(out) == s.churn.flaps {
			break
		}
		if !connectedWithout(g, e) {
			continue
		}
		down := warmup + netsim.Time(len(out)+1)*spacing
		out = append(out, flap{edge: e, down: down, up: down + s.churn.flapDown})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].down < out[j].down })
	return out
}

// connectedWithout reports whether g stays connected with edge skip removed.
func connectedWithout(g *topology.Graph, skip int) bool {
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.Incident(v) {
			if ei == skip {
				continue
			}
			u := g.Edge(ei).Other(v)
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}
