package experiments

import (
	"testing"

	"pim/internal/netsim"
)

// smallDataplane keeps the workload fast enough for go test.
func smallDataplane() DataplaneConfig {
	return DataplaneConfig{
		Hops: 16, Packets: 120, PacketGap: 10 * netsim.Millisecond,
		Payload: 16, FillerRoutes: 64,
	}
}

// Phase benchmarks for bench-smoke and profiling: one full simulation run
// per iteration.
func benchmarkDataplanePhase(b *testing.B, phase string) {
	cfg := DefaultDataplane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runDataplaneOnce(cfg, phase)
	}
}

func BenchmarkDataplaneShared(b *testing.B) { benchmarkDataplanePhase(b, "shared") }
func BenchmarkDataplaneDense(b *testing.B)  { benchmarkDataplanePhase(b, "dense") }

// TestDataplaneDeliversToBothReceivers pins the workload shape: two member
// LANs, every measured packet reaching both.
func TestDataplaneDeliversToBothReceivers(t *testing.T) {
	cfg := smallDataplane()
	res := RunDataplane(cfg)
	if len(res.Phases) != len(dataplanePhases) {
		t.Fatalf("got %d phases, want %d", len(res.Phases), len(dataplanePhases))
	}
	for _, p := range res.Phases {
		if p.Delivered != 2*cfg.Packets {
			t.Errorf("phase %s: delivered %d, want %d", p.Name, p.Delivered, 2*cfg.Packets)
		}
	}
}

// TestDataplaneCountersCoverMeasuredWindow pins the per-pass counter reset:
// router metrics are zeroed alongside netsim.Stats at the measured window's
// start, so in register-free steady state every data link crossing is either
// the source host's own emission (one per packet) or a counted router
// forward — exactly. If the reset were dropped, Forwarded would also include
// the tree-priming packets and overshoot this identity.
func TestDataplaneCountersCoverMeasuredWindow(t *testing.T) {
	cfg := smallDataplane()
	res := RunDataplane(cfg)
	for _, p := range res.Phases {
		if want := p.Crossings - int64(cfg.Packets); p.Forwarded != want {
			t.Errorf("phase %s: router forwards = %d, want crossings−sends = %d",
				p.Name, p.Forwarded, want)
		}
	}
}
