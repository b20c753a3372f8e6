package unicast

import (
	"math/rand"
	"testing"

	"pim/internal/addr"
)

// randPrefix draws a prefix biased toward the lengths the simulator uses
// (/24 link subnets, /32 hosts, short aggregates, and the default route).
func randPrefix(rng *rand.Rand) addr.Prefix {
	var l int
	switch rng.Intn(10) {
	case 0:
		l = 0
	case 1, 2:
		l = 8 + rng.Intn(8)
	case 3, 4, 5, 6:
		l = 24
	case 7:
		l = 32
	default:
		l = rng.Intn(33)
	}
	return addr.MustPrefix(addr.IP(rng.Uint32()), l)
}

func randRoute(rng *rand.Rand) Route {
	r := Route{NextHop: addr.IP(rng.Uint32()), Metric: int64(rng.Intn(1000))}
	if rng.Intn(8) == 0 {
		r.Metric = InfMetric // unreachable: must not shadow shorter prefixes
	}
	return r
}

// lookupLinear is the oracle longest-prefix match: the first containing
// prefix in (length desc, address asc) order whose route is reachable.
func (t *Table) lookupLinear(dst addr.IP) (Route, bool) {
	for i := range t.entries {
		if t.entries[i].prefix.Contains(dst) && t.entries[i].route.Metric < InfMetric {
			return t.entries[i].route, true
		}
	}
	return Route{}, false
}

// TestTrieMatchesLinearScan is the differential test pinning the trie to
// the linear scan: after every mutation batch, the trie must return
// bit-identical results to the linear scan for probes aimed at installed
// prefixes, near misses, and random addresses.
func TestTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tb := &Table{}
		var installed []addr.Prefix
		for step := 0; step < 120; step++ {
			switch rng.Intn(10) {
			case 0, 1: // delete something (maybe absent)
				if len(installed) > 0 && rng.Intn(2) == 0 {
					tb.Delete(installed[rng.Intn(len(installed))])
				} else {
					tb.Delete(randPrefix(rng))
				}
			case 2: // wholesale replace
				m := map[addr.Prefix]Route{}
				for i := rng.Intn(20); i > 0; i-- {
					m[randPrefix(rng)] = randRoute(rng)
				}
				tb.Replace(m)
				installed = installed[:0]
				for p := range m {
					installed = append(installed, p)
				}
			default:
				p := randPrefix(rng)
				tb.Set(p, randRoute(rng))
				installed = append(installed, p)
			}
			for probe := 0; probe < 20; probe++ {
				var dst addr.IP
				if len(installed) > 0 && probe%2 == 0 {
					// Aim inside (or one past) an installed prefix so
					// overlaps and boundaries are exercised.
					p := installed[rng.Intn(len(installed))]
					dst = p.Addr + addr.IP(rng.Intn(4))
				} else {
					dst = addr.IP(rng.Uint32())
				}
				wantR, wantOK := tb.lookupLinear(dst)
				gotR, gotOK := tb.Lookup(dst)
				if gotOK != wantOK || gotR != wantR {
					t.Fatalf("trial %d step %d: Lookup(%v) = %+v,%v; linear = %+v,%v\ntable:\n%s",
						trial, step, dst, gotR, gotOK, wantR, wantOK, tb)
				}
			}
		}
	}
}

// TestGetHidesUnreachable pins the Get/Lookup consistency fix: routes at
// InfMetric are invisible to Lookup, so Get must report them as absent too.
func TestGetHidesUnreachable(t *testing.T) {
	tb := &Table{}
	p := addr.MustPrefix(addr.V4(10, 0, 0, 0), 8)
	tb.Set(p, Route{Metric: InfMetric})
	if _, ok := tb.Get(p); ok {
		t.Error("Get returned an unreachable route as ok")
	}
	if tb.Len() != 1 {
		t.Error("unreachable entry should still occupy the table")
	}
	tb.Set(p, Route{Metric: 5})
	if r, ok := tb.Get(p); !ok || r.Metric != 5 {
		t.Errorf("Get after repair = %+v, %v", r, ok)
	}
}

// TestGenerationBumps proves every mutation path advances the generation,
// which is what internal/rpf relies on for staleness detection.
func TestGenerationBumps(t *testing.T) {
	tb := &Table{}
	p := addr.MustPrefix(addr.V4(10, 0, 0, 0), 8)
	g := tb.Gen()
	step := func(name string, f func()) {
		t.Helper()
		f()
		if tb.Gen() <= g {
			t.Errorf("%s did not bump generation", name)
		}
		g = tb.Gen()
	}
	step("Set", func() { tb.Set(p, Route{Metric: 1}) })
	step("Set overwrite", func() { tb.Set(p, Route{Metric: 2}) })
	step("NotifyChanged", func() { tb.NotifyChanged() })
	step("Replace", func() { tb.Replace(map[addr.Prefix]Route{p: {Metric: 3}}) })
	step("Delete", func() { tb.Delete(p) })
	// No-op delete must not advance: nothing changed, caches stay valid.
	tb.Delete(p)
	if tb.Gen() != g {
		t.Error("idempotent Delete bumped generation")
	}
	// Unchanged Replace likewise.
	tb.Replace(map[addr.Prefix]Route{})
	if tb.Gen() != g {
		t.Error("no-change Replace bumped generation")
	}
}

// TestWarmLookupAllocFree asserts the acceptance criterion: once the trie
// is built, lookups allocate nothing.
func TestWarmLookupAllocFree(t *testing.T) {
	tb := benchTable(256)
	tb.Lookup(addr.V4(10, 100, 7, 1)) // warm: triggers any rebuild
	if n := testing.AllocsPerRun(100, func() {
		tb.Lookup(addr.V4(10, 100, 7, 1))
		tb.Lookup(addr.V4(10, 200, 3, 2))
		tb.Lookup(addr.V4(99, 9, 9, 9))
	}); n != 0 {
		t.Errorf("warm Lookup allocates %.1f per run", n)
	}
}

// TestRebuildAllocFree pins the trie's node reuse: once a table has been
// looked up, a withdrawal and re-install followed by a lookup (one full
// rebuild each) allocates nothing, and the rebuilt trie still answers like
// the linear scan.
func TestRebuildAllocFree(t *testing.T) {
	tb := benchTable(256)
	p := addr.MustPrefix(addr.V4(10, 200, 3, 0), 24)
	r, _ := tb.Get(p)
	dst := addr.V4(10, 200, 3, 2)
	tb.Lookup(dst)
	if n := testing.AllocsPerRun(100, func() {
		tb.Delete(p)
		tb.Lookup(dst)
		tb.Set(p, r)
		tb.Lookup(dst)
	}); n != 0 {
		t.Errorf("rebuild allocates %.1f per run", n)
	}
	for _, d := range []addr.IP{dst, addr.V4(10, 100, 7, 1), addr.V4(10, 9, 9, 9), addr.V4(99, 9, 9, 9)} {
		got, gok := tb.Lookup(d)
		want, wok := tb.lookupLinear(d)
		if got != want || gok != wok {
			t.Errorf("Lookup(%v) = %v,%v after rebuilds, linear scan %v,%v", d, got, gok, want, wok)
		}
	}
}

// benchTable builds a table shaped like a scenario unicast table: n /24
// link prefixes under 10.100/10.200 plus a handful of aggregates.
func benchTable(n int) *Table {
	tb := &Table{}
	for i := 0; i < n; i++ {
		second := byte(100)
		if i%2 == 1 {
			second = 200
		}
		tb.Set(addr.MustPrefix(addr.V4(10, second, byte(i/2), 0), 24),
			Route{NextHop: addr.V4(10, second, byte(i/2), 2), Metric: int64(i + 1)})
	}
	tb.Set(addr.MustPrefix(addr.V4(10, 0, 0, 0), 8), Route{Metric: 1000})
	tb.Set(addr.MustPrefix(0, 0), Route{Metric: 5000})
	return tb
}

func benchmarkLookup(b *testing.B, trie bool, n int) {
	tb := benchTable(n)
	lookup := tb.lookupLinear
	if trie {
		lookup = tb.Lookup
	}
	// Probe the deep end of the scan order: 10.200.x sorts after 10.100.x
	// among the /24s, which is where scenario sources live.
	dsts := make([]addr.IP, 64)
	for i := range dsts {
		dsts[i] = addr.V4(10, 200, byte((n/2-1)-i%(n/2)), 1)
	}
	lookup(dsts[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(dsts[i%len(dsts)])
	}
}

func BenchmarkLPMTrie256(b *testing.B)   { benchmarkLookup(b, true, 256) }
func BenchmarkLPMLinear256(b *testing.B) { benchmarkLookup(b, false, 256) }
func BenchmarkLPMTrie32(b *testing.B)    { benchmarkLookup(b, true, 32) }
func BenchmarkLPMLinear32(b *testing.B)  { benchmarkLookup(b, false, 32) }
