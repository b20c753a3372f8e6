package script

import (
	"path/filepath"
	"testing"

	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// runScenario executes one scenario, with released frames poisoned or not,
// and returns its telemetry stream and result.
func runScenario(t *testing.T, path string, poison bool) ([]telemetry.Event, *Result) {
	t.Helper()
	prevPoison := netsim.SetPoisonFrames(poison)
	defer netsim.SetPoisonFrames(prevPoison)
	s, err := ParseFile(path)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bus := telemetry.NewBus()
	var events []telemetry.Event
	bus.Subscribe(func(ev telemetry.Event) { events = append(events, ev) })
	res, err := s.RunWith(RunConfig{Bus: bus})
	if err != nil {
		t.Fatalf("run (poison=%v): %v", poison, err)
	}
	return events, res
}

// TestScenariosPoisonedPool enforces the borrowed-frame ownership contract
// (DESIGN.md §13) over the whole scenario corpus: with released frames
// poisoned to 0xDB, any handler that retained a borrowed packet, payload, or
// decoded alias past its HandlePacket call reads garbage — and the telemetry
// stream diverges from the clean run. Matching streams mean no
// protocol engine reads a frame after its fan-out completed.
func TestScenariosPoisonedPool(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.pim")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario scripts found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			cleanEvents, cleanRes := runScenario(t, path, false)
			poisonEvents, poisonRes := runScenario(t, path, true)

			if len(cleanEvents) != len(poisonEvents) {
				t.Fatalf("event streams differ in length: clean=%d poisoned=%d",
					len(cleanEvents), len(poisonEvents))
			}
			for i := range cleanEvents {
				if cleanEvents[i] != poisonEvents[i] {
					t.Fatalf("event %d diverged under poison (stale frame read?):\nclean    = %+v\npoisoned = %+v",
						i, cleanEvents[i], poisonEvents[i])
				}
			}
			if len(cleanRes.Failures) != len(poisonRes.Failures) {
				t.Errorf("expectation outcomes differ: clean=%v poisoned=%v",
					cleanRes.Failures, poisonRes.Failures)
			}
			for host, n := range cleanRes.Delivered {
				if poisonRes.Delivered[host] != n {
					t.Errorf("host %s delivered %d clean, %d poisoned",
						host, n, poisonRes.Delivered[host])
				}
			}
		})
	}
}
