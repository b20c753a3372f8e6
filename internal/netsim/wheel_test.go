package netsim

import (
	"runtime"
	"testing"
)

// ---------------------------------------------------------------------------
// Randomized differential test: the timing wheel must produce bit-identical
// fire order to the reference heap over arbitrary mixes of After/At/Post/
// Stop/Step/RunUntil/Run, including nested scheduling from callbacks and
// deadlines beyond the wheel's 2^32 µs span (overflow heap + block
// migration). This is the tentpole's determinism gate.
// ---------------------------------------------------------------------------

// newHeapScheduler returns a scheduler backed by the binary heap: the
// oracle the wheel's fire order is held to.
func newHeapScheduler() *Scheduler { return &Scheduler{heap: &schedHeap{}} }

// bothStores names the wheel and its heap oracle for the tests that hold a
// property on each.
var bothStores = []struct {
	name string
	mk   func() *Scheduler
}{{"heap", newHeapScheduler}, {"wheel", NewScheduler}}

type schedOp struct {
	kind int  // 0 After, 1 At, 2 Post, 3 Stop, 4 Step, 5 RunUntil, 6 Run, 7 Reset
	arg  Time // delay / absolute time / stop index / run budget
	arg2 Time // Reset: new delay
}

type fireRec struct {
	id int
	at Time
}

// genOps derives a deterministic op sequence from seed. Deadline mixes are
// chosen to exercise every wheel path: same-µs bursts (level-0 FIFO),
// sub-window and cross-window delays (cascades), and multi-block far
// deadlines (overflow migration).
func genOps(seed uint64, n int) []schedOp {
	ops := make([]schedOp, 0, n)
	rng := seed
	next := func() uint64 { rng = benchLCG(rng); return rng >> 11 }
	for i := 0; i < n; i++ {
		switch r := next() % 100; {
		case r < 30: // After
			ops = append(ops, schedOp{kind: 0, arg: diffDelay(next)})
		case r < 40: // At (absolute; clamping to now is part of the contract)
			ops = append(ops, schedOp{kind: 1, arg: Time(next() % uint64(20*Second))})
		case r < 65: // Post
			ops = append(ops, schedOp{kind: 2, arg: diffDelay(next)})
		case r < 73: // Stop a previously created timer
			ops = append(ops, schedOp{kind: 3, arg: Time(next())})
		case r < 80: // Reset a previously created timer
			ops = append(ops, schedOp{kind: 7, arg: Time(next()), arg2: diffDelay(next)})
		case r < 90: // Step
			ops = append(ops, schedOp{kind: 4})
		case r < 98: // RunUntil(now + delta)
			ops = append(ops, schedOp{kind: 5, arg: Time(next() % uint64(2*Second))})
		default: // Run with a small event budget
			ops = append(ops, schedOp{kind: 6, arg: Time(next()%40 + 1)})
		}
	}
	return ops
}

// diffDelay picks a delay from a mix of ranges: same-instant, sub-window,
// in-block, and past the 2^32 µs block boundary (overflow). Occasionally
// negative, to pin the clamp.
func diffDelay(next func() uint64) Time {
	switch next() % 10 {
	case 0:
		return 0
	case 1:
		return -Time(next() % 1000) // clamped to "now"
	case 2, 3, 4:
		return Time(next() % 256) // inside the level-0 window
	case 5, 6:
		return Time(next() % uint64(Second)) // cascade territory
	case 7, 8:
		return Time(next() % uint64(100*Second)) // upper levels
	default:
		return Time(next() % uint64(Time(3)<<32)) // overflow blocks
	}
}

// applyOps replays one op sequence on s and returns the (id, time) fire
// trace. Every scheduled callback records; ids below the nested base also
// spawn a nested Post from inside their callback, exercising scheduling
// during the drain of the very slot being fired.
func applyOps(s *Scheduler, ops []schedOp) []fireRec {
	const nestedBase = 1 << 20
	var trace []fireRec
	timers := make(map[int]*Timer)
	nextID := 0
	var record func(id int) func()
	record = func(id int) func() {
		return func() {
			trace = append(trace, fireRec{id, s.Now()})
			if id < nestedBase && id%5 == 0 {
				s.Post(Time(id%97), record(nestedBase+id))
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			timers[nextID] = s.After(op.arg, record(nextID))
			nextID++
		case 1:
			timers[nextID] = s.At(op.arg, record(nextID))
			nextID++
		case 2:
			s.Post(op.arg, record(nextID))
			nextID++
		case 3:
			if nextID > 0 {
				if tm := timers[int(uint64(op.arg)%uint64(nextID))]; tm != nil {
					tm.Stop()
				}
			}
		case 4:
			s.Step()
		case 5:
			s.RunUntil(s.Now() + op.arg)
		case 6:
			s.Run(int64(op.arg))
		case 7:
			if nextID > 0 {
				if tm := timers[int(uint64(op.arg)%uint64(nextID))]; tm != nil {
					tm.Reset(op.arg2)
				}
			}
		}
	}
	s.Run(0) // drain everything that remains
	return trace
}

func TestWheelDifferentialRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF, 0xC0FFEE} {
		ops := genOps(seed, 4000)
		ref := applyOps(newHeapScheduler(), ops)
		got := applyOps(NewScheduler(), ops)
		if len(ref) != len(got) {
			t.Fatalf("seed %#x: heap fired %d events, wheel fired %d", seed, len(ref), len(got))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("seed %#x: fire %d diverges: heap %+v, wheel %+v", seed, i, ref[i], got[i])
			}
		}
		if len(ref) == 0 {
			t.Fatalf("seed %#x: degenerate sequence fired nothing", seed)
		}
	}
}

// ---------------------------------------------------------------------------
// Targeted wheel unit tests.
// ---------------------------------------------------------------------------

// TestWheelOverflowOrder: deadlines past the wheels' 2^32 µs span park in
// the overflow heap and migrate block-by-block, preserving (time, seq) order
// across block boundaries and within a same-instant burst.
func TestWheelOverflowOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	add := func(id int, at Time) { s.At(at, func() { order = append(order, id) }) }
	far := Time(5) << 32 // five blocks out
	add(0, far)          // same instant, insertion order 0,1,2
	add(1, far)
	add(2, far)
	add(3, Time(2)<<32+7) // middle block
	add(4, 50)            // in the current block
	add(5, far+Second)    // after the burst
	s.Run(0)
	want := []int{4, 3, 0, 1, 2, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 || s.LiveTimers() != 0 {
		t.Fatalf("Pending=%d Live=%d after drain, want 0/0", s.Pending(), s.LiveTimers())
	}
}

// TestWheelRunUntilThenEarlierInsert: a bounded RunUntil must not advance
// the cursor past its deadline; an event scheduled afterwards, earlier than
// the parked one, still fires first. (This is the cursor-invariant trap a
// peek-style implementation falls into.)
func TestWheelRunUntilThenEarlierInsert(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(600*Second, func() { order = append(order, 600) })
	s.RunUntil(550 * Second)
	if len(order) != 0 {
		t.Fatalf("event fired early: %v", order)
	}
	s.At(560*Second, func() { order = append(order, 560) })
	s.After(Millisecond, func() { order = append(order, 550) }) // now+1ms
	s.Run(0)
	want := []int{550, 560, 600}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelCrossWindowFIFO: two events at the same absolute deadline, one
// scheduled while the deadline was several levels upstairs and one scheduled
// just before it fires, preserve global insertion order.
func TestWheelCrossWindowFIFO(t *testing.T) {
	s := NewScheduler()
	deadline := 300*Second + 41*Microsecond
	var order []int
	s.At(deadline, func() { order = append(order, 0) }) // far away: upper level
	s.RunUntil(300 * Second)                            // cursor now close to the deadline
	s.At(deadline, func() { order = append(order, 1) }) // near: lands low
	s.At(deadline-1, func() { order = append(order, 2) })
	s.Run(0)
	want := []int{2, 0, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelStopReclaim: Stop is lazy on the wheel — individual entries
// linger until the cursor, a cascade, or the dead-majority compaction sweep
// touches them — but they must never fire, and once dead entries outnumber
// live ones the sweep reclaims them all at once.
func TestWheelStopReclaim(t *testing.T) {
	s := NewScheduler()
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = s.After(Second+Time(i)*Millisecond, func() { t.Error("stopped timer fired") })
	}
	// Stopping exactly half leaves the dead entries parked: no sweep yet
	// (the sweep needs a strict dead majority).
	for _, tm := range timers[:n/2] {
		tm.Stop()
	}
	if p := s.Pending(); p != n {
		t.Errorf("Pending = %d with dead entries not yet a majority, want %d (lazy cancel leaves entries queued)", p, n)
	}
	// One more Stop tips the dead entries into the majority and triggers the
	// compaction sweep, which reclaims every dead entry in one pass.
	timers[n/2].Stop()
	if p := s.Pending(); p != n/2-1 {
		t.Errorf("Pending = %d after dead-majority sweep, want %d", p, n/2-1)
	}
	for _, tm := range timers[n/2+1:] {
		tm.Stop()
	}
	if l := s.LiveTimers(); l != 0 {
		t.Errorf("LiveTimers = %d after stopping all, want 0", l)
	}
	s.RunUntil(3 * Second)
	if p := s.Pending(); p != 0 {
		t.Errorf("Pending = %d after the deadlines passed, want 0 (slots reclaimed)", p)
	}
}

// TestLiveTimerAccounting: the live/peak gauges are identical on the wheel
// and its heap oracle and track schedule, cancel, and fire.
func TestLiveTimerAccounting(t *testing.T) {
	for _, st := range bothStores {
		s := st.mk()
		timers := make([]*Timer, 10)
		for i := range timers {
			timers[i] = s.After(Time(i+1)*Millisecond, func() {})
		}
		s.Post(5*Millisecond, func() {})
		if got := s.LiveTimers(); got != 11 {
			t.Errorf("%s: LiveTimers = %d, want 11", st.name, got)
		}
		for _, tm := range timers[:3] {
			tm.Stop()
		}
		if got := s.LiveTimers(); got != 8 {
			t.Errorf("%s: LiveTimers = %d after 3 stops, want 8", st.name, got)
		}
		s.Run(0)
		if got := s.LiveTimers(); got != 0 {
			t.Errorf("%s: LiveTimers = %d after drain, want 0", st.name, got)
		}
		if got := s.PeakLiveTimers(); got != 11 {
			t.Errorf("%s: PeakLiveTimers = %d, want 11", st.name, got)
		}
	}
}

// TestTimerReset: Reset re-arms without allocating a new handle — the old
// entry never fires, the new deadline and FIFO position follow the re-arm,
// and Reset on a fired or stopped timer refuses and leaves it untouched.
func TestTimerReset(t *testing.T) {
	for _, st := range bothStores {
		s := st.mk()
		var order []int
		tm := s.After(10, func() { order = append(order, 0) })
		s.Post(50, func() { order = append(order, 1) })
		if !tm.Reset(100) {
			t.Fatalf("%s: Reset on an active timer refused", st.name)
		}
		s.RunUntil(60)
		if len(order) != 1 || order[0] != 1 {
			t.Fatalf("%s: old arm fired or order wrong: %v", st.name, order)
		}
		if tm.When() != 100 || !tm.Active() {
			t.Fatalf("%s: When=%d Active=%v after Reset, want 100/true", st.name, tm.When(), tm.Active())
		}
		// Same-deadline FIFO follows the re-arm, not the original schedule.
		s.Post(40, func() { order = append(order, 2) }) // also at t=100
		if !tm.Reset(40) {
			t.Fatalf("%s: second Reset refused", st.name)
		}
		s.Run(0)
		want := []int{1, 2, 0}
		for i := range want {
			if i >= len(order) || order[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", st.name, order, want)
			}
		}
		if tm.Reset(5) {
			t.Errorf("%s: Reset on a fired timer re-armed it", st.name)
		}
		stopped := s.After(10, func() { t.Error("stopped timer fired") })
		stopped.Stop()
		if stopped.Reset(5) {
			t.Errorf("%s: Reset on a stopped timer re-armed it", st.name)
		}
		if s.LiveTimers() != 0 {
			t.Errorf("%s: LiveTimers = %d after drain, want 0", st.name, s.LiveTimers())
		}
		s.Run(0)
	}
}

// ---------------------------------------------------------------------------
// GC-visibility regression: a retained Timer handle must not pin the
// Scheduler once the timer can no longer fire (ISSUE 5 satellite — Stop
// used to leave t.s set).
// ---------------------------------------------------------------------------

func TestStopUnpinsScheduler(t *testing.T) {
	for _, st := range bothStores {
		collected := make(chan struct{})
		tm := func() *Timer {
			s := st.mk()
			runtime.SetFinalizer(s, func(*Scheduler) { close(collected) })
			tm := s.After(Second, benchNop)
			tm.Stop()
			return tm
		}()
		if tm.s != nil {
			t.Fatalf("%s: Stop left the scheduler back-pointer set", st.name)
		}
		ok := false
		for i := 0; i < 100 && !ok; i++ {
			runtime.GC()
			select {
			case <-collected:
				ok = true
			default:
			}
		}
		if !ok {
			t.Errorf("%s: scheduler not collected while a stopped Timer handle is retained", st.name)
		}
		runtime.KeepAlive(tm)
	}
}

// TestFireUnpinsScheduler: same property for a handle whose timer fired.
func TestFireUnpinsScheduler(t *testing.T) {
	s := NewScheduler()
	tm := s.After(Millisecond, benchNop)
	s.Run(0)
	if tm.s != nil || tm.fn != nil {
		t.Error("fired timer still references the scheduler or its callback")
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer reported cancellation")
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks: cancel-heavy and fire-heavy mixes on a parked-timer
// background. The scaling benchmark replays the same workloads into
// BENCH_scale.json.
// ---------------------------------------------------------------------------

func BenchmarkSchedulerChurn(b *testing.B) {
	s := PrepSchedulerBench()
	b.ReportAllocs()
	b.ResetTimer()
	SchedulerChurn(s, b.N)
}

func BenchmarkSchedulerDense(b *testing.B) {
	s := PrepSchedulerBench()
	b.ReportAllocs()
	b.ResetTimer()
	SchedulerDense(s, b.N)
}
