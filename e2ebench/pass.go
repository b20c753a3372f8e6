package main

import (
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"pim/internal/addr"
	cbteng "pim/internal/cbt"
	"pim/internal/core"
	dvmrpcfg "pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/metrics"
	mospfeng "pim/internal/mospf"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// pass is the measurement of one protocol simulated once over a workload's
// inputs. Every host-time field is a span around a call into the
// simulator's public API, taken from outside.
type pass struct {
	proto proto

	// Set-up spans.
	gen, build, tables, deploy time.Duration
	// run is the host time of the whole simulated span; recompute is the
	// part spent inside the link down/up calls.
	run, recompute time.Duration
	linkChanges    int
	// sliceMS is host ms per simulated second for each run slice.
	sliceMS []float64
	// peakLive is the largest live heap seen at a slice boundary.
	peakLive uint64

	events, ctrl, data, received int64
	drops                        [netsim.NumDropReasons]int64
	peakTimers                   int
	shards                       []netsim.ShardLoad
	// entries is the forwarding state at the end; bytes its footprint for
	// engines on the shared mfib store (bytesKnown).
	entries    int64
	bytes      int64
	bytesKnown bool
	engine     map[string]int64

	gcCPU       float64
	gcCycles    uint64
	gcPause     time.Duration
	allocBytes  uint64
	allocObject uint64

	deliv tally

	// Traced pass only.
	tel        [telemetry.Deliver + 1]int64
	trace      map[string]int64
	violations int
}

// setup returns the host time from seed to a deployed simulation.
func (p *pass) setup() time.Duration { return p.gen + p.build + p.tables + p.deploy }

// runtime/metrics samples read around a run.
var rtNames = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

type rtSample struct {
	live, cycles, allocB, allocO uint64
	gcCPU                        float64
	pause                        time.Duration
}

func readRuntime(buf []rtmetrics.Sample) rtSample {
	rtmetrics.Read(buf)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{
		live:   buf[0].Value.Uint64(),
		gcCPU:  buf[1].Value.Float64(),
		cycles: buf[2].Value.Uint64(),
		allocB: buf[3].Value.Uint64(),
		allocO: buf[4].Value.Uint64(),
		pause:  time.Duration(ms.PauseTotalNs),
	}
}

func newRuntimeBuf() []rtmetrics.Sample {
	buf := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		buf[i].Name = n
	}
	return buf
}

// runPass builds, deploys and runs one protocol over the inputs on the
// given number of shards. A traced pass, which must be unsharded (netsim
// refuses delivery traces on shards), attaches a telemetry bus with the
// invariant checker and a delivery trace counter.
func runPass(s *spec, in *inputs, pr proto, shards int, traced bool, tr *tracer) *pass {
	p := &pass{proto: pr, engine: map[string]int64{}}
	rtBuf := newRuntimeBuf()

	t0 := time.Now()
	g := topology.Random(in.gen, rand.New(rand.NewSource(in.graphSeed)))
	t1 := time.Now()
	sim := scenario.Build(g)
	sim.AutoShardN(shards)
	hosts := map[int]*igmp.Host{}
	host := func(r int) *igmp.Host {
		if h := hosts[r]; h != nil {
			return h
		}
		h := sim.AddHost(r)
		hosts[r] = h
		return h
	}
	slots := make([][]*slot, len(in.groups))
	// byHost routes a host's data to its slot for the packet's group.
	byHost := map[*igmp.Host]map[addr.IP]*slot{}
	for gi := range in.groups {
		grp := &in.groups[gi]
		for _, m := range grp.members {
			h := host(m.router)
			sl := newSlot(grp)
			slots[gi] = append(slots[gi], sl)
			if byHost[h] == nil {
				byHost[h] = map[addr.IP]*slot{}
			}
			byHost[h][grp.addr] = sl
		}
		for _, sd := range grp.senders {
			host(sd.router)
		}
	}
	groupOf := map[addr.IP]*group{}
	for gi := range in.groups {
		groupOf[in.groups[gi].addr] = &in.groups[gi]
	}
	for h, bySlot := range byHost {
		h.OnData = func(ga addr.IP, pkt *packet.Packet) {
			sl := bySlot[ga]
			if sl == nil {
				return
			}
			now := h.Node.Sched().Now()
			lat, ok := scenario.Latency(now, pkt)
			if !ok {
				sl.strays++
				return
			}
			sl.receive(groupOf[ga], now-lat, now)
		}
	}
	t2 := time.Now()
	sim.FinishUnicast(scenario.UseOracle)
	t3 := time.Now()

	var opts []scenario.DeployOption
	if traced {
		bus := telemetry.NewBus()
		bus.Subscribe(func(ev telemetry.Event) {
			if int(ev.Kind) < len(p.tel) {
				p.tel[ev.Kind]++
			}
		})
		p.trace = map[string]int64{}
		sim.Net.Trace = func(ev netsim.TraceEvent) { countTrace(p.trace, ev.Pkt) }
		opts = append(opts, scenario.WithTelemetry(bus), scenario.WithInvariantChecker())
	}
	dep, ctrl := deploy(sim, s, in, pr, opts)
	t4 := time.Now()
	p.gen, p.build, p.tables, p.deploy = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	top := tr.add("pass."+string(pr), -1, t0, t4)
	setup := tr.add("setup", top, t0, t4)
	tr.add("topology.gen", setup, t0, t1)
	tr.add("scenario.build", setup, t1, t2)
	tr.add("unicast.tables", setup, t2, t3)
	tr.add("scenario.deploy", setup, t3, t4)

	schedule(sim, in, host, slots, p, tr, top)

	// The live heap is read at every slice boundary, outside the timed
	// slices. /gc/heap/live:bytes is the heap marked live by the last
	// completed collection: the benchmark forces none while the simulation
	// runs, so the run pays its own GC cost and the gc.* figures count only
	// the program's collections.
	before := readRuntime(rtBuf)
	for now := netsim.Time(0); now < s.span(); {
		st := time.Now()
		sim.Run(sliceLen)
		end := time.Now()
		now += sliceLen
		d := end.Sub(st)
		tr.add("netsim.run", top, st, end)
		p.run += d
		p.sliceMS = append(p.sliceMS, float64(d)/float64(time.Millisecond)/sliceLen.Seconds())
		rtmetrics.Read(rtBuf[:1])
		p.peakLive = max(p.peakLive, rtBuf[0].Value.Uint64())
	}
	after := readRuntime(rtBuf)
	// One forced collection after the run, outside run_s and the gc.*
	// figures, adds the exact live set at the end to the peak.
	runtime.GC()
	rtmetrics.Read(rtBuf[:1])
	p.peakLive = max(p.peakLive, rtBuf[0].Value.Uint64())
	p.gcCPU = after.gcCPU - before.gcCPU
	p.gcCycles = after.cycles - before.cycles
	p.gcPause = after.pause - before.pause
	p.allocBytes = after.allocB - before.allocB
	p.allocObject = after.allocO - before.allocO

	st := &sim.Net.Stats
	p.events = sim.Net.EventsProcessed()
	p.ctrl, p.data, p.received = st.Totals.ControlPackets, st.Totals.DataPackets, st.Received
	p.drops = st.Drops
	p.peakTimers = sim.Net.PeakLiveTimers()
	p.shards = sim.Net.ShardLoads()
	p.entries = int64(dep.TotalState())
	if sb, ok := dep.(interface{ StateBytes() int64 }); ok {
		p.bytes, p.bytesKnown = sb.StateBytes(), true
	}
	for _, c := range ctrl() {
		for _, class := range engineClasses[pr] {
			p.engine[engineMetric(pr, class)] += c.Get(class)
		}
	}
	p.violations = len(dep.Violations())
	p.deliv = judge(in.groups, slots, blackouts(in.flaps, pr != cbt))
	dep.Stop()
	return p
}

// schedule hands the simulator the workload's membership, send and link
// schedule: joins, leaves and sends on each host's own scheduler, link
// changes on the root scheduler.
func schedule(sim *scenario.Sim, in *inputs, host func(int) *igmp.Host, slots [][]*slot, p *pass, tr *tracer, parent int) {
	for gi := range in.groups {
		grp := &in.groups[gi]
		for mi, m := range grp.members {
			h, sl := host(m.router), slots[gi][mi]
			sched := h.Node.Sched()
			for i, iv := range m.joined {
				// Rejoins inside the window time their first packet; the
				// initial join precedes any send.
				rejoin := i > 0
				sched.At(iv.from, func() {
					h.Join(grp.addr)
					if rejoin {
						sl.join(sched.Now())
					}
				})
				if iv.to != forever {
					sched.At(iv.to, func() { h.Leave(grp.addr); sl.leave() })
				}
			}
		}
		for _, sd := range grp.senders {
			if len(sd.sends) == 0 {
				continue
			}
			h, sends := host(sd.router), sd.sends
			sched := h.Node.Sched()
			next := 0
			var pump func()
			pump = func() {
				scenario.SendData(h, grp.addr, 64)
				if next++; next < len(sends) {
					sched.At(sends[next], pump)
				}
			}
			sched.At(sends[0], pump)
		}
	}
	for _, f := range in.flaps {
		link := sim.EdgeLinks[f.edge]
		for _, ch := range []struct {
			at netsim.Time
			up bool
		}{{f.down, false}, {f.up, true}} {
			up := ch.up
			sim.Net.Sched.At(ch.at, func() {
				st := time.Now()
				sim.Net.SetLinkUp(link, up)
				end := time.Now()
				tr.add("unicast.recompute", parent, st, end)
				p.recompute += end.Sub(st)
				p.linkChanges++
			})
		}
	}
}

// deploy starts the protocol with the workload's rendezvous points and
// returns a reader of its routers' counters.
func deploy(sim *scenario.Sim, s *spec, in *inputs, pr proto, opts []scenario.DeployOption) (scenario.Deployment, func() []*metrics.Counters) {
	rps := map[addr.IP][]addr.IP{}
	for _, g := range in.groups {
		rps[g.addr] = []addr.IP{sim.RouterAddr(g.rp)}
	}
	switch pr {
	case pimSM:
		d := sim.Deploy(scenario.SparseMode, append(opts, scenario.WithRPMapping(rps))...).(*scenario.PIMDeployment)
		return d, func() []*metrics.Counters {
			return counters(d.Routers, func(r *core.Router) *metrics.Counters { return r.Metrics })
		}
	case pimDM:
		d := sim.Deploy(scenario.DenseMode, append(opts, scenario.WithDenseConfig(pimdm.Config{PruneHoldTime: pruneLife}))...).(*scenario.PIMDMDeployment)
		return d, func() []*metrics.Counters {
			return counters(d.Routers, func(r *pimdm.Router) *metrics.Counters { return r.Metrics })
		}
	case dvmrp:
		d := sim.Deploy(scenario.DVMRPMode, append(opts, scenario.WithDVMRPConfig(dvmrpcfg.Config{PruneLifetime: pruneLife}))...).(*scenario.DVMRPDeployment)
		return d, func() []*metrics.Counters {
			return counters(d.Routers, func(r *dvmrpcfg.Router) *metrics.Counters { return r.Metrics })
		}
	case mospf:
		d := sim.Deploy(scenario.MOSPFMode, opts...).(*scenario.MOSPFDeployment)
		return d, func() []*metrics.Counters {
			return counters(d.Routers, func(r *mospfeng.Router) *metrics.Counters { return r.Metrics })
		}
	case cbt:
		d := sim.Deploy(scenario.CBTMode, append(opts, scenario.WithRPMapping(rps))...).(*scenario.CBTDeployment)
		return d, func() []*metrics.Counters {
			return counters(d.Routers, func(r *cbteng.Router) *metrics.Counters { return r.Metrics })
		}
	}
	panic("unknown protocol " + string(pr))
}

func counters[R any](rs []R, f func(R) *metrics.Counters) []*metrics.Counters {
	out := make([]*metrics.Counters, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// traceNames lists every count countTrace can produce.
var traceNames = []string{
	"trace.igmp", "trace.udp", "trace.pim", "trace.dvmrp", "trace.cbt", "trace.mospf",
	"trace.pim_data", "trace.other", "pimdm.member_ads",
}

var traceProtos = map[byte]string{
	packet.ProtoIGMP:    "trace.igmp",
	packet.ProtoUDP:     "trace.udp",
	packet.ProtoPIM:     "trace.pim",
	packet.ProtoDVMRP:   "trace.dvmrp",
	packet.ProtoCBT:     "trace.cbt",
	packet.ProtoMOSPF:   "trace.mospf",
	packet.ProtoPIMData: "trace.pim_data",
}

// countTrace tallies one delivery by IP protocol, and PIM-DM member
// advertisements on their own.
func countTrace(out map[string]int64, pkt *packet.Packet) {
	name, ok := traceProtos[pkt.Protocol]
	if !ok {
		name = "trace.other"
	}
	out[name]++
	if pkt.Protocol == packet.ProtoPIM {
		if typ, _, err := pimmsg.Open(pkt.Payload); err == nil && typ == pimmsg.TypeMemberAd {
			out["pimdm.member_ads"]++
		}
	}
}
