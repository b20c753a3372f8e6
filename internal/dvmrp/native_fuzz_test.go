package dvmrp_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/dvmrp"
)

// FuzzUnmarshal: the decoder survives arbitrary bytes, and any accepted
// message re-encodes to bytes that decode to the same message. Under plain
// `go test` the seeds below run as unit tests; `go test -fuzz=FuzzUnmarshal
// ./internal/dvmrp` explores further.
func FuzzUnmarshal(f *testing.F) {
	for typ := byte(dvmrp.TypeProbe); typ <= dvmrp.TypeGraftAck; typ++ {
		f.Add((&dvmrp.Message{Type: typ, Source: addr.V4(10, 100, 0, 1), Group: addr.GroupForIndex(3), Lifetime: 120}).Marshal())
	}
	f.Add(make([]byte, 11))
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := dvmrp.Unmarshal(b)
		if err != nil {
			return
		}
		got, err := dvmrp.Unmarshal(m.Marshal())
		if err != nil || *got != *m {
			t.Fatalf("round trip: %+v -> %+v, %v", m, got, err)
		}
	})
}
