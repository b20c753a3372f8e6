package main

import (
	"testing"
	"time"
)

func TestSpeedScale(t *testing.T) {
	if got := speedScale(probeRef); got != 1 {
		t.Errorf("at the reference speed: scale %v, want 1", got)
	}
	if got := speedScale(2 * probeRef); got != 0.5 {
		t.Errorf("on a half-speed host: scale %v, want 0.5", got)
	}
	for _, p := range probe() {
		if p <= 0 || p > 100*probeRef {
			t.Errorf("probe took %v", p)
		}
	}
}

func TestProbeMedianIgnoresFewSlowProbes(t *testing.T) {
	ms := time.Millisecond
	byDraw := [][]*unit{
		{{probes: []time.Duration{900 * ms, 101 * ms}}, {probes: []time.Duration{99 * ms, 100 * ms}}},
		{{probes: []time.Duration{100 * ms, 102 * ms, 800 * ms}}},
	}
	if got := probeMedian(byDraw); got != 101*ms {
		t.Errorf("probeMedian = %v, want 101ms", got)
	}
}
