package topology

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzParseEdgeList: the parser survives arbitrary text, and any accepted
// graph written back with WriteEdgeList parses to the same graph. Under
// plain `go test` the seeds below (and testdata/fuzz/FuzzParseEdgeList)
// run as unit tests; `go test -fuzz=FuzzParseEdgeList ./internal/topology`
// explores further.
func FuzzParseEdgeList(f *testing.F) {
	var buf bytes.Buffer
	if err := Random(GenConfig{Nodes: 12, Degree: 3}, rand.New(rand.NewSource(1))).WriteEdgeList(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# comment\n\n0 1\n1 2 5\n")
	for _, s := range []string{"0\n", "0 1 2 3\n", "x 1\n", "0 y\n", "0 1 z\n", "0 1 0\n", "0 0\n", "-1 2\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseEdgeList(bytes.NewBufferString(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := g.WriteEdgeList(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ParseEdgeList(&out)
		if err != nil {
			t.Fatalf("re-parse of written graph failed: %v\n%s", err, out.String())
		}
		if back.N() != g.N() || !reflect.DeepEqual(back.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %d nodes %v -> %d nodes %v",
				g.N(), g.Edges(), back.N(), back.Edges())
		}
	})
}
