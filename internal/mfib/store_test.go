package mfib

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// TestFlatStoreSpill exercises the inline→spill transition of the oif list
// both ways: fan-outs wider than inlineOIFCap spill to the heap slice, stay
// sorted by interface index, and shrink back across the boundary.
func TestFlatStoreSpill(t *testing.T) {
	ifs := testIfaces(inlineOIFCap + 3)
	tb := NewTable()
	e, _ := tb.Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	for i, ifc := range ifs {
		e.AddOIF(ifc, netsim.Time(100+i))
	}
	if e.OIFCount() != len(ifs) {
		t.Fatalf("OIFCount = %d, want %d", e.OIFCount(), len(ifs))
	}
	live := e.LiveOIFs(50, nil)
	if len(live) != len(ifs) {
		t.Fatalf("LiveOIFs = %d, want %d", len(live), len(ifs))
	}
	for i := 1; i < len(live); i++ {
		if live[i-1].Index >= live[i].Index {
			t.Fatal("LiveOIFs not sorted by index")
		}
	}
	// Remove from the middle (shifts across the inline/spill boundary).
	e.RemoveOIF(ifs[2])
	if e.OIFCount() != len(ifs)-1 || e.OIF(ifs[2].Index) != nil {
		t.Fatal("middle removal broke the list")
	}
	for _, ifc := range ifs {
		e.RemoveOIF(ifc)
	}
	if e.OIFCount() != 0 {
		t.Fatalf("OIFCount = %d after removing all", e.OIFCount())
	}
}
