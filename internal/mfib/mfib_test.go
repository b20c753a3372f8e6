package mfib

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

func testIfaces(n int) []*netsim.Iface {
	net := netsim.NewNetwork()
	nd := net.AddNode("r")
	out := make([]*netsim.Iface, n)
	for i := range out {
		out[i] = net.AddIface(nd, addr.V4(10, 200, byte(i), 1))
		peer := net.AddIface(net.AddNode("p"), addr.V4(10, 200, byte(i), 2))
		net.Connect(out[i], peer, 1)
	}
	return out
}

func TestKeyKinds(t *testing.T) {
	tb := NewTable()
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, created := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	if !created || !wc.Wildcard {
		t.Fatalf("wildcard: created=%v wc=%v", created, wc.Wildcard)
	}
	sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
	if sg.Wildcard {
		t.Error("(S,G) must not be wildcard")
	}
	rpt, _ := tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct entries", tb.Len())
	}
	if tb.Wildcard(g) != wc || tb.SG(s, g) != sg || tb.SGRpt(s, g) != rpt {
		t.Error("typed getters wrong")
	}
	if tb.SG(s, addr.GroupForIndex(9)) != nil {
		t.Error("missing entry should be nil")
	}
}

func TestUpsertIdempotent(t *testing.T) {
	tb := NewTable()
	k := Key{Group: addr.GroupForIndex(0), RPBit: true}
	e1, c1 := tb.Upsert(k, 5)
	e2, c2 := tb.Upsert(k, 9)
	if !c1 || c2 || e1 != e2 {
		t.Fatal("Upsert not idempotent")
	}
	if e1.Created != 5 {
		t.Error("Created clobbered")
	}
	// A deleted and re-created key is a new incarnation: timer closures
	// holding the old Life() must not match it.
	tb.Delete(k)
	e3, c3 := tb.Upsert(k, 12)
	if !c3 || e3.Life() == e1.Life() || e3.Created != 12 || e3.OIFCount() != 0 {
		t.Errorf("re-created entry: created=%v life %d (old %d) Created=%d oifs=%d",
			c3, e3.Life(), e1.Life(), e3.Created, e3.OIFCount())
	}
}

func TestOIFLifetimes(t *testing.T) {
	ifs := testIfaces(3)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	if !e.HasOIF(ifs[0], 50) || !e.HasOIF(ifs[1], 50) {
		t.Fatal("fresh oifs should be live")
	}
	if e.HasOIF(ifs[0], 101) {
		t.Error("expired join oif still live")
	}
	if !e.HasOIF(ifs[1], 1<<40) {
		t.Error("local member oif must not expire")
	}
	if e.HasOIF(ifs[2], 0) {
		t.Error("absent oif reported live")
	}
}

func TestAddOIFNeverShortensTimer(t *testing.T) {
	ifs := testIfaces(1)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddOIF(ifs[0], 60) // late-arriving shorter holdtime must not shorten
	if !e.HasOIF(ifs[0], 90) {
		t.Error("timer was shortened")
	}
}

func TestLiveOIFsExcludesArrivalIface(t *testing.T) {
	ifs := testIfaces(3)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	for _, ifc := range ifs {
		e.AddOIF(ifc, 100)
	}
	out := e.LiveOIFs(50, ifs[1])
	if len(out) != 2 {
		t.Fatalf("LiveOIFs = %v", out)
	}
	for _, ifc := range out {
		if ifc == ifs[1] {
			t.Error("arrival iface included")
		}
	}
	// Deterministic order.
	if out[0].Index > out[1].Index {
		t.Error("not sorted")
	}
}

func TestOIFEmptyAndRemove(t *testing.T) {
	ifs := testIfaces(2)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	if !e.OIFEmpty(0) {
		t.Error("new entry should have empty oifs")
	}
	e.AddOIF(ifs[0], 100)
	if e.OIFEmpty(50) {
		t.Error("oifs not empty")
	}
	e.RemoveOIF(ifs[0])
	if !e.OIFEmpty(50) {
		t.Error("remove failed")
	}
}

func TestJoinClearsPendingPrune(t *testing.T) {
	ifs := testIfaces(1)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	o := e.AddOIF(ifs[0], 100)
	o.PrunePending = true
	o.PruneDeadline = 80
	e.AddOIF(ifs[0], 120) // join override
	if o.PrunePending {
		t.Error("join did not cancel pending prune")
	}
}

func TestSweepExpiredOIFsAndDeadEntries(t *testing.T) {
	ifs := testIfaces(2)
	tb := NewTable()
	g := addr.GroupForIndex(0)
	e, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	tb.Sweep(200)
	if e.OIF(ifs[0].Index) != nil {
		t.Error("expired oif not swept")
	}
	if e.OIF(ifs[1].Index) == nil {
		t.Error("local oif swept")
	}
	// Entry deletion after DeleteAt.
	e2, _ := tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g}, 0)
	e2.DeleteAt = 300
	if removed := tb.Sweep(250); len(removed) != 0 {
		t.Error("premature deletion")
	}
	removed := tb.Sweep(300)
	if len(removed) != 1 || removed[0] != e2 {
		t.Fatalf("removed = %v", removed)
	}
	if tb.SG(addr.V4(10, 0, 0, 1), g) != nil {
		t.Error("entry survived sweep")
	}
}

func TestAddOIFResetsDeleteAt(t *testing.T) {
	ifs := testIfaces(1)
	tb := NewTable()
	e, _ := tb.Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.DeleteAt = 100
	e.AddOIF(ifs[0], 200)
	if e.DeleteAt != 0 {
		t.Error("AddOIF should cancel scheduled deletion")
	}
}

func TestForGroupDeterministicOrder(t *testing.T) {
	tb := NewTable()
	g := addr.GroupForIndex(0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 2), Group: g}, 0)
	tb.Upsert(Key{Group: g, RPBit: true}, 0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g}, 0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g, RPBit: true}, 0)
	tb.Upsert(Key{Group: addr.GroupForIndex(1), RPBit: true}, 0)
	var seen []string
	tb.ForGroup(g, func(e *Entry) { seen = append(seen, e.String()) })
	want := []string{
		"(*," + g.String() + ")",
		"(10.0.0.1," + g.String() + ")",
		"(10.0.0.1," + g.String() + ")RPbit",
		"(10.0.0.2," + g.String() + ")",
	}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
	n := 0
	tb.ForEach(func(*Entry) { n++ })
	if n != 5 {
		t.Errorf("ForEach visited %d", n)
	}
}

func TestEntryStringNotation(t *testing.T) {
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 0, 0, 1)
	if got := NewEntry(Key{Group: g, RPBit: true}, 0).String(); got != "(*,225.0.0.0)" {
		t.Errorf("wildcard String = %q", got)
	}
	if got := NewEntry(Key{Source: s, Group: g}, 0).String(); got != "(10.0.0.1,225.0.0.0)" {
		t.Errorf("SG String = %q", got)
	}
	if got := NewEntry(Key{Source: s, Group: g, RPBit: true}, 0).String(); got != "(10.0.0.1,225.0.0.0)RPbit" {
		t.Errorf("RPbit String = %q", got)
	}
}
