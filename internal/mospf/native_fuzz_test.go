package mospf

import (
	"slices"
	"testing"

	"pim/internal/addr"
)

// FuzzMembershipLSA: the LSA decoder survives arbitrary bytes, and any
// accepted LSA re-encodes to bytes that decode to the same LSA. Under plain
// `go test` the seeds below run as unit tests; `go test
// -fuzz=FuzzMembershipLSA ./internal/mospf` explores further.
func FuzzMembershipLSA(f *testing.F) {
	f.Add((&membershipLSA{Origin: 3, Seq: 7}).marshal())
	f.Add((&membershipLSA{Origin: 1, Seq: 2, Groups: []addr.IP{addr.GroupForIndex(0), addr.GroupForIndex(5)}}).marshal())
	f.Add(make([]byte, 9))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff})
	var scratch membershipLSA
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := scratch.unmarshal(b); err != nil {
			return
		}
		var got membershipLSA
		if err := got.unmarshal(scratch.marshal()); err != nil ||
			got.Origin != scratch.Origin || got.Seq != scratch.Seq || !slices.Equal(got.Groups, scratch.Groups) {
			t.Fatalf("round trip: %+v -> %+v, %v", scratch, got, err)
		}
	})
}
