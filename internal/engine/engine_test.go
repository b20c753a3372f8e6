package engine

import (
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// recorder builds a started lifecycle on a fresh node with a bus that
// records every event.
func recorder(t *testing.T) (*netsim.Network, *Lifecycle, *[]telemetry.Event) {
	t.Helper()
	net := netsim.NewNetwork()
	lc := New(net.AddNode("r"))
	l := &lc
	bus := telemetry.NewBus()
	var evs []telemetry.Event
	bus.Subscribe(func(ev telemetry.Event) { evs = append(evs, ev) })
	l.SetTelemetry(bus)
	if !l.Begin(0) {
		t.Fatal("Begin on a stopped lifecycle returned false")
	}
	return net, l, &evs
}

func kinds(evs []telemetry.Event, k telemetry.Kind) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestTimerArmedBeforeStopOrRestartNeverRuns: a timer armed in one epoch
// neither runs nor publishes TimerFire once Stop (End) or Restart (End then
// Begin) has ended that epoch.
func TestTimerArmedBeforeStopOrRestartNeverRuns(t *testing.T) {
	for _, restart := range []bool{false, true} {
		net, l, evs := recorder(t)
		ran := false
		l.After(netsim.Second, func() { ran = true })
		l.End(0)
		if restart {
			l.Begin(0)
		}
		net.Sched.RunUntil(10 * netsim.Second)
		if ran {
			t.Errorf("restart=%v: timer from the ended epoch ran", restart)
		}
		if fires := kinds(*evs, telemetry.TimerFire); len(fires) != 0 {
			t.Errorf("restart=%v: TimerFire published for a dead timer: %+v", restart, fires)
		}
	}
}

// TestBeginEndIdempotent: starting a running engine or stopping a stopped
// one changes nothing and publishes nothing.
func TestBeginEndIdempotent(t *testing.T) {
	_, l, evs := recorder(t)
	if l.Begin(0) {
		t.Error("second Begin returned true")
	}
	if !l.End(0) {
		t.Error("End on a running lifecycle returned false")
	}
	if l.End(0) {
		t.Error("second End returned true")
	}
	if l.Started() || l.epoch != 1 {
		t.Errorf("after Begin,Begin,End,End: started=%v epoch=%d, want false 1", l.Started(), l.epoch)
	}
	if n := len(kinds(*evs, telemetry.EpochStart)); n != 1 {
		t.Errorf("%d EpochStart events, want 1", n)
	}
	if n := len(kinds(*evs, telemetry.EpochEnd)); n != 1 {
		t.Errorf("%d EpochEnd events, want 1", n)
	}
}

// TestTimerFireCarriesArmingEpoch: a timer that runs reports the epoch it
// was armed under, and the lifecycle events carry the epoch they open or
// close.
func TestTimerFireCarriesArmingEpoch(t *testing.T) {
	net, l, evs := recorder(t)
	l.End(0)
	l.Begin(3)
	l.After(netsim.Second, func() {})
	net.Sched.RunUntil(2 * netsim.Second)
	fires := kinds(*evs, telemetry.TimerFire)
	if len(fires) != 1 || fires[0].Epoch != 1 || fires[0].At != netsim.Second || fires[0].Iface != -1 {
		t.Fatalf("TimerFire events = %+v, want one at 1s in epoch 1", fires)
	}
	starts := kinds(*evs, telemetry.EpochStart)
	if len(starts) != 2 || starts[0].Epoch != 0 || starts[1].Epoch != 1 || starts[1].Value != 3 {
		t.Errorf("EpochStart events = %+v, want epochs 0 and 1, the second with value 3", starts)
	}
	if ends := kinds(*evs, telemetry.EpochEnd); len(ends) != 1 || ends[0].Epoch != 0 {
		t.Errorf("EpochEnd events = %+v, want one closing epoch 0", ends)
	}
}

// TestNeighborExpiryOrder: a sweep that expires several neighbors at once
// reports them in (iface, address) order, whatever the map order.
func TestNeighborExpiryOrder(t *testing.T) {
	var nb Neighbors
	heard := []struct {
		iface int
		a     addr.IP
	}{{2, 9}, {0, 7}, {2, 3}, {1, 5}, {0, 2}, {1, 8}}
	for _, h := range heard {
		nb.Hear(h.iface, h.a, 0, 10)
	}
	nb.Hear(1, 6, 0, 100) // still live at the sweep
	type key struct {
		iface int
		a     addr.IP
	}
	var got []key
	nb.Expire(50, func(iface int, a addr.IP) { got = append(got, key{iface, a}) })
	want := []key{{0, 2}, {0, 7}, {1, 5}, {1, 8}, {2, 3}, {2, 9}}
	if !slices.Equal(got, want) {
		t.Errorf("expiry order = %v, want %v", got, want)
	}
	if nb.Count(50) != 1 || !nb.Live(1, 6, 50) || nb.Leaf(1, 50) || !nb.Leaf(0, 50) {
		t.Errorf("after the sweep: count=%d, want only 1/6 live", nb.Count(50))
	}
}

// TestNeighborHear: known reports any entry, live only an unexpired one —
// the two "new neighbor" tests the engines use.
func TestNeighborHear(t *testing.T) {
	var nb Neighbors
	if known, live := nb.Hear(0, 1, 0, 10); known || live {
		t.Errorf("first hello: known=%v live=%v, want false false", known, live)
	}
	if known, live := nb.Hear(0, 1, 5, 15); !known || !live {
		t.Errorf("refresh: known=%v live=%v, want true true", known, live)
	}
	if known, live := nb.Hear(0, 1, 20, 30); !known || live {
		t.Errorf("hello after expiry: known=%v live=%v, want true false", known, live)
	}
}

// TestMembersGroups: Groups is sorted and deduplicated across interfaces.
func TestMembersGroups(t *testing.T) {
	var m Members
	m.Add(1, 30)
	m.Add(0, 20)
	m.Add(0, 30)
	m.Add(2, 10)
	m.Remove(2, 10)
	if got := m.Groups(nil); !slices.Equal(got, []addr.IP{20, 30}) {
		t.Errorf("Groups = %v, want [20 30]", got)
	}
	if !m.Has(1, 30) || m.Has(2, 10) || !m.Any(20) || m.Any(10) {
		t.Error("Has/Any disagree with the adds and removes")
	}
	m.Reset()
	if m.Any(30) || len(m.Groups(nil)) != 0 {
		t.Error("Reset left members behind")
	}
}
