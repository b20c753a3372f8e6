package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"pim/internal/netsim"
)

// Sampler derives per-router time-series counter curves from the event
// stream: control messages sent, installed state entries, deliveries, and
// data-plane drops, bucketed by a fixed interval. It needs no polling — the
// curves are folded incrementally from events — so attaching a sampler never
// perturbs protocol timing.
//
// A sharded simulation publishes on one bus per shard; NewShardedSampler
// attaches one isolated lane of sampler state to each bus, so observation
// stays race-free (a lane is only touched by its shard's goroutine) and the
// curves merge at dump time — every router lives on exactly one shard, so
// the union is disjoint.
type Sampler struct {
	interval netsim.Time
	lanes    []*samplerLane
	// shardLoads, when attached, reads the per-shard execution counters at
	// dump time; the readings land in Dump.Shards.
	shardLoads func() []netsim.ShardLoad
}

// samplerLane is the per-bus observation state: everything mutated while the
// simulation runs lives here, touched only by the owning shard.
type samplerLane struct {
	interval netsim.Time
	routers  map[int]*samplerSeries
	last     int // highest bucket index seen on this lane
	// gauge, when attached, reads the owning shard's live-timer count; it is
	// sampled on every observed event (never on its own schedule, so it adds
	// no events of its own) and the dump carries the peak reading.
	gauge     func() int64
	gaugePeak int64
	// liveEntries folds EntryCreate/EntryExpire into the lane's installed
	// multicast state population; the dump carries the peak.
	liveEntries   int64
	liveEntryPeak int64
}

type samplerSeries struct {
	buckets map[int]*samplerBucket
}

type samplerBucket struct {
	ctrl       int64
	stateDelta int64
	delivered  int64
	drops      int64
	timerFires int64
}

// Sample is one point of a router's curve, serialized in the JSON dump.
type Sample struct {
	// TSec is the bucket's start time in simulated seconds.
	TSec float64 `json:"t_sec"`
	// Ctrl counts control messages sent in the bucket.
	Ctrl int64 `json:"ctrl"`
	// State is the installed entry count at the end of the bucket
	// (cumulative: creates minus expiries).
	State int64 `json:"state"`
	// Delivered counts host deliveries at the router's site.
	Delivered int64 `json:"delivered"`
	// Drops counts RPF-failure and no-state data drops.
	Drops int64 `json:"drops"`
	// TimerFires counts epoch-guarded soft-state timer bodies that executed
	// in the bucket — the refresh-load side of the §2.3 soft-state design.
	TimerFires int64 `json:"timer_fires"`
}

// RouterCurve is one router's full series.
type RouterCurve struct {
	Router  int      `json:"router"`
	Samples []Sample `json:"samples"`
}

// Dump is the JSON document Write produces.
type Dump struct {
	IntervalSec float64       `json:"interval_sec"`
	Routers     []RouterCurve `json:"routers"`
	// LiveTimerPeak is the highest live-timer gauge reading observed across
	// the run — total armed timers in the scheduler, the queue's population
	// pressure. Sharded runs report the sum of per-lane peaks.
	// Zero (and omitted) when no gauge was attached.
	LiveTimerPeak int64 `json:"live_timer_peak,omitempty"`
	// LiveEntryPeak is the highest simultaneously-installed multicast state
	// entry count observed across the run, folded from the
	// EntryCreate/EntryExpire stream (no gauge needed). Sharded runs report
	// the sum of per-lane peaks.
	LiveEntryPeak int64 `json:"live_entry_peak,omitempty"`
	// Shards carries the per-shard execution counters of a sharded run:
	// events executed, barrier-wait time, and lookahead stalls per shard.
	// Omitted for sequential runs.
	Shards []netsim.ShardLoad `json:"shards,omitempty"`
}

// NewSampler attaches a sampler with the given bucket interval to the bus.
func NewSampler(bus *Bus, interval netsim.Time) *Sampler {
	return NewShardedSampler([]*Bus{bus}, interval)
}

// NewShardedSampler attaches one sampler lane per bus — the per-shard
// telemetry lanes of a sharded deployment — and merges the curves at dump
// time.
func NewShardedSampler(buses []*Bus, interval netsim.Time) *Sampler {
	if interval <= 0 {
		interval = netsim.Second
	}
	s := &Sampler{interval: interval}
	for _, bus := range buses {
		lane := &samplerLane{interval: interval, routers: map[int]*samplerSeries{}}
		bus.Subscribe(lane.observe)
		s.lanes = append(s.lanes, lane)
	}
	return s
}

// AttachLiveTimerGauge wires a live-timer reader (typically the simulation
// scheduler's LiveTimers count) into the sampler's first lane. The gauge is
// polled on each observed event, so attaching it is timing-neutral; the peak
// reading lands in Dump.LiveTimerPeak. On sharded samplers use
// AttachLaneGauge with each shard's own scheduler instead.
func (s *Sampler) AttachLiveTimerGauge(read func() int64) {
	s.AttachLaneGauge(0, read)
}

// AttachLaneGauge wires a live-timer reader into lane i. The reader runs on
// shard i's goroutine, so it must touch only that shard's scheduler.
func (s *Sampler) AttachLaneGauge(i int, read func() int64) {
	s.lanes[i].gauge = read
}

// AttachShardLoads wires a per-shard execution-counter reader (typically
// netsim.Network.ShardLoads), polled once at dump time.
func (s *Sampler) AttachShardLoads(read func() []netsim.ShardLoad) {
	s.shardLoads = read
}

func (l *samplerLane) observe(ev Event) {
	if l.gauge != nil {
		if v := l.gauge(); v > l.gaugePeak {
			l.gaugePeak = v
		}
	}
	var ctrl, stateDelta, delivered, drops, timerFires int64
	switch ev.Kind {
	case JoinPruneSend, GraftSend, PruneSend, RegisterSend, LSAFlood:
		ctrl = 1
	case EntryCreate:
		stateDelta = 1
		if l.liveEntries++; l.liveEntries > l.liveEntryPeak {
			l.liveEntryPeak = l.liveEntries
		}
	case EntryExpire:
		stateDelta = -1
		l.liveEntries--
	case Deliver:
		delivered = 1
	case RPFDrop, NoState:
		drops = 1
	case TimerFire:
		timerFires = 1
	default:
		return
	}
	rs := l.routers[ev.Router]
	if rs == nil {
		rs = &samplerSeries{buckets: map[int]*samplerBucket{}}
		l.routers[ev.Router] = rs
	}
	bi := int(ev.At / l.interval)
	if bi > l.last {
		l.last = bi
	}
	b := rs.buckets[bi]
	if b == nil {
		b = &samplerBucket{}
		rs.buckets[bi] = b
	}
	b.ctrl += ctrl
	b.stateDelta += stateDelta
	b.delivered += delivered
	b.drops += drops
	b.timerFires += timerFires
}

// Curves folds the observed events into the dump document: routers sorted by
// index, every bucket from 0 through the last observed one present (state is
// carried forward through empty buckets). A router's series lives wholly on
// its shard's lane, so merging lanes is a disjoint union.
func (s *Sampler) Curves() Dump {
	d := Dump{IntervalSec: float64(s.interval) / float64(netsim.Second)}
	routers := map[int]*samplerSeries{}
	last := 0
	for _, l := range s.lanes {
		d.LiveTimerPeak += l.gaugePeak
		d.LiveEntryPeak += l.liveEntryPeak
		if l.last > last {
			last = l.last
		}
		for i, rs := range l.routers {
			routers[i] = rs
		}
	}
	if s.shardLoads != nil {
		d.Shards = s.shardLoads()
	}
	idxs := make([]int, 0, len(routers))
	for i := range routers {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		rs := routers[i]
		curve := RouterCurve{Router: i, Samples: make([]Sample, 0, last+1)}
		var state int64
		for bi := 0; bi <= last; bi++ {
			sm := Sample{TSec: float64(bi) * d.IntervalSec, State: state}
			if b := rs.buckets[bi]; b != nil {
				state += b.stateDelta
				sm.State = state
				sm.Ctrl = b.ctrl
				sm.Delivered = b.delivered
				sm.Drops = b.drops
				sm.TimerFires = b.timerFires
			}
			curve.Samples = append(curve.Samples, sm)
		}
		d.Routers = append(d.Routers, curve)
	}
	return d
}

// WriteJSON writes the curves as indented JSON. The output is deterministic
// for a deterministic run, so it is suitable for golden-file tests and the
// cmd/pimbench ledgers.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Curves())
}
