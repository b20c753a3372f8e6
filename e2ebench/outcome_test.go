package main

import (
	"testing"

	"pim/internal/netsim"
)

func TestOutcomeHashSeesEveryObservable(t *testing.T) {
	base := func() []*pass {
		p := &pass{proto: pimSM, events: 100, ctrl: 10, data: 80, received: 90, entries: 7}
		p.drops[netsim.DropNoHandler] = 3
		p.deliv.expected, p.deliv.ok, p.deliv.dup = 50, 45, 1
		p.deliv.delayMS[40] = 45
		return []*pass{p, {proto: cbt, events: 5}}
	}
	ref := outcomeHash(base())
	if outcomeHash(base()) != ref {
		t.Fatal("hash is not deterministic")
	}
	for name, mutate := range map[string]func([]*pass){
		"events":   func(ps []*pass) { ps[0].events++ },
		"ctrl":     func(ps []*pass) { ps[0].ctrl++ },
		"data":     func(ps []*pass) { ps[0].data++ },
		"received": func(ps []*pass) { ps[0].received++ },
		"drops":    func(ps []*pass) { ps[0].drops[netsim.DropLinkDown]++ },
		"expected": func(ps []*pass) { ps[0].deliv.expected++ },
		"ok":       func(ps []*pass) { ps[0].deliv.ok++ },
		"dup":      func(ps []*pass) { ps[0].deliv.dup++ },
		"strays":   func(ps []*pass) { ps[0].deliv.strays++ },
		"delay":    func(ps []*pass) { ps[0].deliv.delayMS[40]--; ps[0].deliv.delayMS[41]++ },
		"entries":  func(ps []*pass) { ps[0].entries++ },
		"proto":    func(ps []*pass) { ps[1].proto = dvmrp },
		"order":    func(ps []*pass) { ps[0], ps[1] = ps[1], ps[0] },
		"2nd pass": func(ps []*pass) { ps[1].events++ },
	} {
		ps := base()
		mutate(ps)
		if outcomeHash(ps) == ref {
			t.Errorf("changing %s left the outcome hash unchanged", name)
		}
	}
	// Host-side measurements are not part of the outcome.
	ps := base()
	ps[0].run, ps[0].peakTimers, ps[0].peakLive = 12345, 99, 1<<30
	if outcomeHash(ps) != ref {
		t.Error("host timing or peak timers changed the outcome hash")
	}
}

// tiny is a small churn workload: every engine path the benchmark drives
// (joins, leaves, sender periods, link flaps) in well under a second.
func tiny() *spec {
	return &spec{
		name: "tiny", routers: 40, groups: 4, members: 3, senders: 1,
		interval: 200 * netsim.Millisecond, window: 20 * netsim.Second,
		protocols: []proto{pimSM, cbt}, shardCheck: true,
		churn: &churnSpec{
			flipsPerSec: 1,
			onMin:       3 * netsim.Second, onMax: 6 * netsim.Second,
			offMin: 1 * netsim.Second, offMax: 2 * netsim.Second,
			flaps: 1, flapDown: 3 * netsim.Second,
		},
	}
}

func TestRepeatedTracedAndShardedRunsAgree(t *testing.T) {
	s := tiny()
	in := makeInputs(s, 3)
	a := runUnit(s, in, 1, false, nil)
	if ok, exp := a.delivered(); ok == 0 || exp == 0 {
		t.Fatalf("delivered %d of %d", ok, exp)
	}
	if b := runUnit(s, in, 1, false, nil); b.hash != a.hash {
		t.Errorf("repeat: %016x != %016x", b.hash, a.hash)
	}
	tr := newTracer()
	traced := runUnit(s, in, 1, true, tr)
	if traced.hash != a.hash {
		t.Errorf("traced: %016x != %016x", traced.hash, a.hash)
	}
	if len(tr.spans) == 0 || traced.passes[0].tel[0] == 0 || traced.passes[0].trace["trace.udp"] == 0 {
		t.Error("traced run recorded no spans, bus events or deliveries")
	}
	if sharded := runUnit(s, in, checkShards, false, nil); sharded.hash != a.hash {
		t.Errorf("%d shards: %016x != %016x", checkShards, sharded.hash, a.hash)
	}
}
