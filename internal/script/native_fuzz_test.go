package script

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse: the scenario parser survives arbitrary text, and any accepted
// script recomposed from its body and golden digest parses to the same
// statements and digest. The committed scenarios seed it, so plain `go test`
// replays every corpus file through the parser; `go test -fuzz=FuzzParse
// ./internal/script` explores further.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"../../scenarios/*.pim", "../../scenarios/found/*.pim"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(b))
		}
	}
	f.Add("topo edges 0-1\nunicast oracle\nprotocol pim-sm\nrun 1s\n" + GoldenMarker + "\n")
	f.Add("bogus statement\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		body := s.Body()
		if len(body) > 0 && body[len(body)-1] != '\n' {
			body += "\n" // Compose terminates the body before the marker
		}
		back, err := Parse(Compose(body, s.Golden()))
		if err != nil {
			t.Fatalf("recomposed script rejected: %v", err)
		}
		if !reflect.DeepEqual(back.stmts, s.stmts) {
			t.Fatalf("recompose changed the statements:\n%+v\n%+v", s.stmts, back.stmts)
		}
		if s.Golden() != nil && !reflect.DeepEqual(back.Golden(), s.Golden()) {
			t.Fatalf("recompose changed the golden: %q -> %q", s.Golden(), back.Golden())
		}
	})
}
