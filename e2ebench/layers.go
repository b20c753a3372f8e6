package main

import (
	"math"
	"slices"
	"time"

	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// span is one benchmark-side interval around a call into a layer, in
// seconds since the tracer started; parent indexes the enclosing span (-1
// at the top).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing. Spans are opened and closed on the benchmark's own goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, parent, start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()})
	return len(t.spans) - 1
}

// engineClasses lists the control counters read from each engine's router
// Metrics.
var engineClasses = map[proto][]string{
	pimSM: {"ctrl.joinprune", "ctrl.register", "ctrl.rpreach"},
	pimDM: {"ctrl.joinprune", "ctrl.prune", "ctrl.graft", "ctrl.assert"},
	dvmrp: {"ctrl.prune", "ctrl.graft"},
	mospf: {"ctrl.lsa", "proc.spf"},
	cbt:   {"ctrl.cbtjoin", "ctrl.cbtack", "ctrl.cbtecho"},
}

func engineMetric(pr proto, class string) string { return "engine." + string(pr) + "." + class }

// dropNames are the per-layer names of netsim's drop reasons, by index.
var dropNames = [netsim.NumDropReasons]string{
	netsim.DropIfaceDown:    "netsim.drops.iface_down",
	netsim.DropLinkDown:     "netsim.drops.link_down",
	netsim.DropMalformed:    "netsim.drops.malformed",
	netsim.DropNoHandler:    "netsim.drops.no_handler",
	netsim.DropInjectedLoss: "netsim.drops.injected_loss",
}

// telKinds are the telemetry-bus counts a traced run reports.
var telKinds = map[string]telemetry.Kind{
	"tel.entry_create": telemetry.EntryCreate,
	"tel.entry_expire": telemetry.EntryExpire,
	"tel.spt_switch":   telemetry.SPTSwitch,
	"tel.rpf_drop":     telemetry.RPFDrop,
	"tel.no_state":     telemetry.NoState,
	"tel.timer_fire":   telemetry.TimerFire,
}

// perLayer assembles the per-layer metrics: spans and counters of the
// untraced unit u in raw host time, with the host-speed probe around it, the CPU attribution, bus and delivery-trace counts of
// the traced unit tu, and the shard counters of the sharded unit sh (nil
// when the workload has no shard check).
func perLayer(u, tu, sh *unit, samples []sample) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	sec := func(f func(*pass) time.Duration) float64 {
		return u.sum(func(p *pass) float64 { return f(p).Seconds() })
	}
	cnt := func(f func(*pass) int64) float64 {
		return u.sum(func(p *pass) float64 { return float64(f(p)) })
	}

	set("topology.gen_s", "s", sec(func(p *pass) time.Duration { return p.gen }))
	set("scenario.build_s", "s", sec(func(p *pass) time.Duration { return p.build }))
	set("unicast.tables_s", "s", sec(func(p *pass) time.Duration { return p.tables }))
	set("scenario.deploy_s", "s", sec(func(p *pass) time.Duration { return p.deploy }))
	set("unicast.recompute_s", "s", sec(func(p *pass) time.Duration { return p.recompute }))
	set("unicast.link_changes", "count", cnt(func(p *pass) int64 { return int64(p.linkChanges) }))

	events := cnt(func(p *pass) int64 { return p.events })
	set("netsim.events", "count", events)
	set("netsim.events_per_s", "1/s", ratio(events, u.run()))
	set("netsim.ctrl_crossings", "count", cnt(func(p *pass) int64 { return p.ctrl }))
	set("netsim.data_crossings", "count", cnt(func(p *pass) int64 { return p.data }))
	for r, name := range dropNames {
		set(name, "count", cnt(func(p *pass) int64 { return p.drops[r] }))
	}
	recv := cnt(func(p *pass) int64 { return p.received })
	set("netsim.useful_frac", "fraction", ratio(recv-cnt(func(p *pass) int64 { return p.drops[netsim.DropNoHandler] }), recv))
	var peakTimers int
	var slicesMS []float64
	for _, p := range u.passes {
		peakTimers = max(peakTimers, p.peakTimers)
		slicesMS = append(slicesMS, p.sliceMS...)
	}
	set("netsim.peak_timers", "count", float64(peakTimers))
	set("netsim.slice_ms_p50", "ms/s", percentile(slicesMS, 50))
	set("netsim.slice_ms_p98", "ms/s", percentile(slicesMS, 98))

	var shardRun float64
	var blocked time.Duration
	var stalls int64
	var imbalance float64
	if sh != nil {
		shardRun = sh.run()
		for _, p := range sh.passes {
			var most, all int64
			for _, l := range p.shards {
				blocked += time.Duration(l.BlockedNs)
				stalls += l.Stalls
				most, all = max(most, l.Events), all+l.Events
			}
			imbalance = max(imbalance, ratio(float64(most)*float64(len(p.shards)), float64(all)))
		}
	}
	set("netsim.shard_run_s", "s", shardRun)
	set("netsim.shard_blocked_s", "s", blocked.Seconds())
	set("netsim.shard_stalls", "count", float64(stalls))
	set("netsim.shard_imbalance", "ratio", imbalance)

	entries := cnt(func(p *pass) int64 { return p.entries })
	var bytes, bytesEntries float64
	for _, p := range u.passes {
		if p.bytesKnown {
			bytes += float64(p.bytes)
			bytesEntries += float64(p.entries)
		}
	}
	set("mfib.entries", "count", entries)
	set("mfib.bytes", "bytes", bytes)
	set("mfib.bytes_per_entry", "bytes", ratio(bytes, bytesEntries))

	for pr, classes := range engineClasses {
		for _, c := range classes {
			name := engineMetric(pr, c)
			set(name, "count", cnt(func(p *pass) int64 { return p.engine[name] }))
		}
	}

	set("gc.cpu_s", "s", u.sum(func(p *pass) float64 { return p.gcCPU }))
	set("gc.cycles", "count", u.sum(func(p *pass) float64 { return float64(p.gcCycles) }))
	set("gc.pause_s", "s", sec(func(p *pass) time.Duration { return p.gcPause }))
	set("alloc.bytes", "bytes", u.sum(func(p *pass) float64 { return float64(p.allocBytes) }))
	set("alloc.objects_per_event", "obj/event", ratio(u.sum(func(p *pass) float64 { return float64(p.allocObject) }), events))

	var delays [delayBins]int64
	var firstData []float64
	for _, p := range u.passes {
		for i, n := range p.deliv.delayMS {
			delays[i] += n
		}
		for _, d := range p.deliv.firstData {
			firstData = append(firstData, float64(d)/float64(netsim.Millisecond))
		}
	}
	set("deliver.ok", "count", cnt(func(p *pass) int64 { return p.deliv.ok }))
	set("deliver.expected", "count", cnt(func(p *pass) int64 { return p.deliv.expected }))
	set("deliver.dup", "count", cnt(func(p *pass) int64 { return p.deliv.dup }))
	set("deliver.sim_delay_p50_ms", "ms", histPercentile(delays[:], 50))
	set("deliver.sim_delay_p99_ms", "ms", histPercentile(delays[:], 99))
	set("join.first_data_ms_p50", "ms", percentile(firstData, 50))

	// Traced unit.
	buckets, total := attribute(samples)
	for b, ns := range buckets {
		set("cpu."+b, "s", float64(ns)/1e9)
	}
	set("cpu.total_s", "s", float64(total)/1e9)
	for name, k := range telKinds {
		set(name, "count", tu.sum(func(p *pass) float64 { return float64(p.tel[k]) }))
	}
	for _, name := range traceNames {
		set(name, "count", tu.sum(func(p *pass) float64 { return float64(p.trace[name]) }))
	}
	set("trace.overhead", "ratio", ratio(tu.run(), u.run()))
	set("host.probe_s", "s", durMedian(u.probes).Seconds())
	set("invariant.violations", "count", tu.sum(func(p *pass) float64 { return float64(p.violations) }))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value (mean of the middle two for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 for no values).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// histPercentile returns the nearest-rank q-th percentile of a histogram
// whose bin i counts values of i (0 for an empty histogram).
func histPercentile(h []int64, q float64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	rank := int64(math.Ceil(q / 100 * float64(n)))
	var seen int64
	for i, c := range h {
		if seen += c; seen >= max(rank, 1) {
			return float64(i)
		}
	}
	return 0
}
