package igmp

import (
	"slices"
	"testing"

	"pim/internal/addr"
)

// FuzzUnmarshal: the decoder survives arbitrary bytes, and any accepted
// message re-encodes to bytes that decode to the same message — through
// both the allocating and the scratch-reusing entry points. Under plain
// `go test` the seeds below run as unit tests; `go test -fuzz=FuzzUnmarshal
// ./internal/igmp` explores further.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range []Message{
		{Type: TypeQuery},
		{Type: TypeReport, Group: addr.GroupForIndex(4)},
		{Type: TypeLeave, Group: addr.GroupForIndex(4)},
		{Type: TypeRPMap, Group: addr.GroupForIndex(1), RPs: []addr.IP{addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2)}},
	} {
		f.Add(m.Marshal())
	}
	f.Add(make([]byte, 7))
	f.Add([]byte{TypeRPMap, 0, 0xff, 0xff, 0, 0, 0, 0})
	var scratch Message
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		if err := UnmarshalInto(&scratch, b); err != nil {
			t.Fatalf("UnmarshalInto rejected what Unmarshal accepted: %v", err)
		}
		got, err := Unmarshal(m.MarshalTo(nil))
		if err != nil || got.Type != m.Type || got.Group != m.Group ||
			!slices.Equal(got.RPs, m.RPs) || !slices.Equal(scratch.RPs, m.RPs) {
			t.Fatalf("round trip: %+v -> %+v, %v", m, got, err)
		}
	})
}
