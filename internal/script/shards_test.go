package script

import (
	"path/filepath"
	"reflect"
	"testing"

	"pim/internal/telemetry"
)

// TestScenariosShardEquivalence is the scenario-level half of the sharding
// acceptance: every scripted workload in the repository must produce the
// same canonical telemetry stream — every join/prune, entry mutation, timer
// fire, delivery, and drop, with identical timestamps — whether it runs
// sequentially or partitioned across 2 or 4 parallel shards. The canonical
// form (RunConfig.Captured: lane buffers merged, stable-sorted by (At, Router))
// preserves each router's publication order, so a match means no router
// anywhere observed the shard count. The scripts cover RP failover, SPT
// switchover, dense-mode grafting, interop, and the fault verbs (loss,
// flap, crash/restart, partition), so this is the broadest
// shard-determinism check in the tree.
func TestScenariosShardEquivalence(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.pim")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario scripts found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			capture := func(shards int) ([]telemetry.Event, *Result) {
				s, err := ParseFile(path)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				res, err := s.RunWith(RunConfig{Shards: shards, Captured: true})
				if err != nil {
					t.Fatalf("run (shards=%d): %v", shards, err)
				}
				return res.Events, res
			}
			baseEvents, baseRes := capture(1)
			if len(baseEvents) == 0 {
				// The mixed sparse/dense interop deployment does not attach
				// telemetry (and pins to sequential execution anyway); the
				// scripted delivery counts must still be non-trivial and
				// identical across shard settings.
				total := 0
				for _, n := range baseRes.Delivered {
					total += n
				}
				if total == 0 {
					t.Fatal("no telemetry events and no deliveries; equivalence check is vacuous")
				}
			}
			for _, n := range []int{2, 4} {
				gotEvents, gotRes := capture(n)
				if len(gotEvents) != len(baseEvents) {
					t.Fatalf("shards=%d: event streams differ in length: seq=%d shd=%d",
						n, len(baseEvents), len(gotEvents))
				}
				for i := range baseEvents {
					if gotEvents[i] != baseEvents[i] {
						t.Fatalf("shards=%d: event %d diverged:\nseq = %+v\nshd = %+v",
							n, i, baseEvents[i], gotEvents[i])
					}
				}
				if !reflect.DeepEqual(gotRes.Failures, baseRes.Failures) {
					t.Errorf("shards=%d: expectation outcomes differ: seq=%v shd=%v",
						n, baseRes.Failures, gotRes.Failures)
				}
				if !reflect.DeepEqual(gotRes.Delivered, baseRes.Delivered) {
					t.Errorf("shards=%d: delivery counts differ:\nseq = %v\nshd = %v",
						n, baseRes.Delivered, gotRes.Delivered)
				}
			}
		})
	}
}
