package cbt_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/cbt"
)

// FuzzUnmarshal: the decoder survives arbitrary bytes, and any accepted
// message re-encodes to bytes that decode to the same message. Under plain
// `go test` the seeds below run as unit tests; `go test -fuzz=FuzzUnmarshal
// ./internal/cbt` explores further.
func FuzzUnmarshal(f *testing.F) {
	for typ := byte(cbt.TypeJoinReq); typ <= cbt.TypeFlush; typ++ {
		f.Add((&cbt.Message{Type: typ, Group: addr.GroupForIndex(2), Core: addr.V4(10, 200, 0, 1)}).Marshal())
	}
	f.Add(make([]byte, 9))
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := cbt.Unmarshal(b)
		if err != nil {
			return
		}
		got, err := cbt.Unmarshal(m.Marshal())
		if err != nil || *got != *m {
			t.Fatalf("round trip: %+v -> %+v, %v", m, got, err)
		}
	})
}
