package mfib

import (
	"math/rand"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// LiveOIFs, sharedList and unionList compute the fan-outs from scratch on
// every call: the oracle the compiled plans are held to.

// LiveOIFs returns the interfaces to forward over, excluding the given
// arrival interface, sorted by index.
func (e *Entry) LiveOIFs(now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	return e.AppendLiveOIFs(nil, now, except)
}

// sharedList is the from-scratch shared-tree computation.
func sharedList(wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	return appendShared(nil, wc, rpt, now, except)
}

// unionList is the from-scratch SPT∪shared computation.
func unionList(sg, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	return appendUnion(nil, sg, wc, rpt, now, except)
}

// TestPlansMatchReferenceLists is the MFIB differential test: under random
// interleavings of OIF mutations, in-place field flips (with Touch), and
// time advances, the compiled fan-outs must equal the from-scratch
// computations exactly — same interfaces, same order.
func TestPlansMatchReferenceLists(t *testing.T) {
	ifs := testIfaces(6)
	rng := rand.New(rand.NewSource(3))
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	for trial := 0; trial < 30; trial++ {
		tb := NewTable()
		wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
		sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
		sg.IIF = ifs[5]
		var rpt *Entry
		now := netsim.Time(0)
		for step := 0; step < 400; step++ {
			e := wc
			switch rng.Intn(3) {
			case 1:
				e = sg
			case 2:
				e = rpt // may be nil
			}
			switch op := rng.Intn(12); {
			case op < 4:
				if e != nil {
					e.AddOIF(ifs[rng.Intn(len(ifs))], now+netsim.Time(rng.Intn(200)))
				}
			case op < 6:
				if e != nil {
					e.AddLocalOIF(ifs[rng.Intn(len(ifs))])
				}
			case op < 8:
				if e != nil {
					e.RemoveOIF(ifs[rng.Intn(len(ifs))])
				}
			case op < 9: // flip fields in place, as the engines do
				if e != nil {
					if o := e.OIF(rng.Intn(len(ifs))); o != nil {
						switch rng.Intn(3) {
						case 0:
							o.LocalMember = !o.LocalMember
						case 1:
							o.PrunePending = !o.PrunePending
						case 2:
							o.Expires = now + netsim.Time(rng.Intn(100))
						}
						e.Touch()
					}
				}
			case op < 10: // create/destroy the negative cache
				if rpt == nil {
					rpt, _ = tb.Upsert(Key{Source: s, Group: g, RPBit: true}, now)
				} else {
					tb.Delete(rpt.Key)
					rpt = nil
				}
			default:
				now += netsim.Time(rng.Intn(60))
			}
			except := ifs[rng.Intn(len(ifs))]
			if rng.Intn(4) == 0 {
				except = nil
			}
			check := func(name string, got, want []*netsim.Iface) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: %s fast=%v ref=%v", trial, step, name, got, want)
				}
			}
			check("self", wc.ForwardOIFs(now, except), wc.LiveOIFs(now, except))
			check("shared", SharedForward(wc, rpt, now, except), sharedList(wc, rpt, now, except))
			check("union", UnionForward(sg, wc, rpt, now, except), unionList(sg, wc, rpt, now, except))
			// Same instant again: the cached plan must serve identically.
			check("self/hit", wc.ForwardOIFs(now, except), wc.LiveOIFs(now, except))
			check("union/hit", UnionForward(sg, wc, rpt, now, except), unionList(sg, wc, rpt, now, except))
		}
	}
}

// TestPlanTimerInvalidation pins the one non-mutation way a list changes:
// a join timer passing must drop the interface from the compiled fan-out
// with no Touch call.
func TestPlanTimerInvalidation(t *testing.T) {
	ifs := testIfaces(2)
	e, _ := NewTable().Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	if got := e.ForwardOIFs(50, nil); len(got) != 2 {
		t.Fatalf("before expiry: %v", got)
	}
	if got := e.ForwardOIFs(101, nil); len(got) != 1 || got[0] != ifs[1] {
		t.Fatalf("after expiry: %v", got)
	}
}

// TestPlanStaleNegativeCache pins plan hosting: deleting the rpt entry and
// creating a fresh one must never serve the old subtraction.
func TestPlanStaleNegativeCache(t *testing.T) {
	ifs := testIfaces(2)
	tb := NewTable()
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	wc.AddOIF(ifs[0], 1000)
	wc.AddOIF(ifs[1], 1000)
	rpt, _ := tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	rpt.AddOIF(ifs[0], 1000)
	if got := SharedForward(wc, rpt, 10, nil); len(got) != 1 || got[0] != ifs[1] {
		t.Fatalf("with negative cache: %v", got)
	}
	tb.Delete(rpt.Key)
	if got := SharedForward(wc, nil, 10, nil); len(got) != 2 {
		t.Fatalf("after rpt delete: %v", got)
	}
}

// TestWarmForwardAllocFree asserts the acceptance criterion for the MFIB:
// established-tree fan-out resolution allocates nothing once compiled.
func TestWarmForwardAllocFree(t *testing.T) {
	ifs := testIfaces(4)
	tb := NewTable()
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
	rpt, _ := tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	for _, ifc := range ifs[:3] {
		wc.AddOIF(ifc, 1000)
		sg.AddOIF(ifc, 1000)
	}
	rpt.AddOIF(ifs[1], 1000)
	now := netsim.Time(10)
	in := ifs[3]
	wc.ForwardOIFs(now, in)
	SharedForward(wc, rpt, now, in)
	UnionForward(sg, wc, rpt, now, in)
	if n := testing.AllocsPerRun(100, func() {
		wc.ForwardOIFs(now, in)
		SharedForward(wc, rpt, now, in)
		UnionForward(sg, wc, rpt, now, in)
	}); n != 0 {
		t.Errorf("warm fan-out resolution allocates %.1f per run", n)
	}
}

func benchEntries(tb *Table) (wc, sg, rpt *Entry, in *netsim.Iface) {
	ifs := testIfaces(8)
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, _ = tb.Upsert(Key{Group: g, RPBit: true}, 0)
	sg, _ = tb.Upsert(Key{Source: s, Group: g}, 0)
	rpt, _ = tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	for _, ifc := range ifs[:7] {
		wc.AddOIF(ifc, 1<<40)
		sg.AddOIF(ifc, 1<<40)
	}
	rpt.AddOIF(ifs[2], 1<<40)
	rpt.AddOIF(ifs[4], 1<<40)
	return wc, sg, rpt, ifs[7]
}

func BenchmarkFanoutCompiled(b *testing.B) {
	wc, sg, rpt, in := benchEntries(NewTable())
	UnionForward(sg, wc, rpt, 10, in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnionForward(sg, wc, rpt, 10, in)
	}
}

func BenchmarkFanoutReference(b *testing.B) {
	wc, sg, rpt, in := benchEntries(NewTable())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unionList(sg, wc, rpt, 10, in)
	}
}
