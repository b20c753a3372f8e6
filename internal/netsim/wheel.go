package netsim

// Hierarchical timing wheel (Varghese & Lauck, SOSP '87): the Scheduler's
// queue. Four levels of 256 slots at a 1µs base
// tick cover 2^32 µs (~71.6 simulated minutes) of lookahead; anything
// further out parks in an overflow heap and migrates into the wheels one
// 2^32 µs block at a time. Insert is O(1) (a byte extraction and a slice
// append), cancel is O(1) lazy (the entry is dropped when the cursor or a
// cascade next touches it), and advancing costs O(slots skipped) amortized
// — versus O(log n) per operation plus compaction sweeps on the reference
// heap, which dominates at soft-state scale (ISSUE 5, DESIGN.md §11).
//
// The ISSUE sketches a 1ms base tick; we use 1µs so that a level-0 slot
// holds exactly one timestamp. That makes same-deadline FIFO trivial —
// slot append order IS global insertion order — instead of requiring a
// sort or a sub-slot bucket walk at fire time, and 4×256 slots still span
// over an hour of simulated time, far beyond any timer the protocols set.
//
// Determinism contract (what the differential tests in wheel_test.go pin):
// events fire in strictly increasing (at, seq) order, bit-identical to the
// reference heap. The argument, for the auditors:
//
//   - Placement is a pure function of (at, cur): an event lands at level
//     l = index of the highest byte where at differs from cur (level 0 if
//     none). So two same-deadline events placed under the same cursor go
//     to the same slot, in push (= seq) order.
//   - The cursor never skips an occupied slot. It only advances to the
//     exact base of the next occupied slot (draining it at level 0,
//     cascading it at levels 1-3), so any upper-level slot holding an
//     event is cascaded before the cursor enters that slot's time range —
//     a later same-deadline push therefore can never land "below" an
//     earlier one that is still waiting upstairs.
//   - Cascades preserve slot order, and a cascaded slot re-places into
//     strictly lower levels, so the drain loop always makes progress.
//   - All overflow events lie in later 2^32 µs blocks than every in-wheel
//     event (they differ from cur above bit 32, and at >= now >= cur), so
//     migrating a whole block only when the wheels are empty keeps the
//     global order intact; the overflow heap itself pops in (at, seq)
//     order.
//
// Cursor invariant: cur <= now whenever the wheel holds any entry, so a
// new push (at >= now) is never behind the cursor. next(limit) never moves
// cur past limit, RunUntil sets now to the deadline afterwards, and a push
// into a fully empty wheel re-seats cur at the scheduler clock.

import (
	"cmp"
	"math/bits"
	"slices"
)

const (
	wheelLevels = 4
	wheelSlots  = 256
	wheelMask   = wheelSlots - 1
	// blockMask isolates the low 32 bits: the span of all four levels.
	// Events beyond cur's 2^32 µs block go to the overflow heap.
	blockMask = Time(1)<<32 - 1
)

type schedWheel struct {
	// cur is the wheel cursor: the time whose byte decomposition indexes
	// the four levels. All in-wheel events have at >= cur.
	cur Time
	// total counts every entry anywhere in the wheel (slots, due buffer,
	// overflow), including stopped-but-unreaped ones; backs Pending().
	total int
	// nwheel counts entries currently in level slots (not due/overflow),
	// so the drain loop knows when to fall through to overflow migration.
	nwheel int
	// levels[l][i] holds events whose deadline matches cur above byte l
	// and has byte l equal to i. At level 0 a slot is a single timestamp,
	// so append order is fire order.
	levels [wheelLevels][wheelSlots][]event
	// occ[l] is a 256-bit occupancy bitmap per level so the cursor can
	// jump straight to the next non-empty slot.
	occ [wheelLevels][wheelSlots / 64]uint64
	// ndead counts cancelled entries still parked in the structure. Lazy
	// cancel alone is quadratic-ish at soft-state scale: protocols re-arm
	// long-deadline timers on every refresh, so far-future slots accumulate
	// dead entries for simulated minutes before the cursor would reclaim
	// them, and the slot slices grow without bound. Scheduler.Stop/Reset
	// trigger compact() once the dead outnumber the live (the same policy
	// as the reference heap's compaction).
	ndead int
	// due is the slot currently being fired, copied out so callbacks can
	// push into the very slot being drained (nested same-time scheduling)
	// without invalidating iteration. Backing array is reused forever.
	due     []event
	dueHead int
	// overflow holds events beyond the wheels' span, as a heap ordered by
	// event.before, sharing the sift helpers with schedHeap.
	overflow []event
	// dirty marks timestamps that received a packet-delivery event. A level-0
	// slot normally fires in append order (= scheduling order), which matches
	// event.before for timer/Post entries (seq is monotone), but a delivery's
	// structural (bs, deliveryOrd) key need not match its push position — a
	// lower-numbered node may transmit after a higher-numbered one, and a
	// cross-shard arrival spliced in at a barrier carries a birth instant that
	// may precede locally appended entries. A dirty slot's batch is therefore
	// checked (and if needed sorted) by (bs, ord) when moved to the due
	// buffer. The mark is keyed by timestamp — not slot index — so it
	// survives cascades and overflow migration; cleared when the timestamp
	// fires.
	dirty map[Time]bool
}

func newWheel() *schedWheel { return &schedWheel{} }

// push inserts one event; now is the scheduler clock, a lower bound on
// every current and future deadline. O(1): a level computation, a slice
// append, a bitmap OR — no sifting, no sorting.
func (w *schedWheel) push(ev event, now Time) {
	if w.total == 0 {
		// Empty wheel: the cursor is unconstrained, so re-seat it at the
		// clock. Anything scheduled from here on has at >= now, keeping
		// the cursor invariant. This also repairs the one case where cur
		// can drift past now (a Step() that drained only dead entries).
		w.cur = now
	}
	w.total++
	if uint64(ev.at^w.cur) > uint64(blockMask) {
		w.overflow = append(w.overflow, ev)
		siftUp(w.overflow)
		return
	}
	w.place(ev)
}

// place files an in-block event (at within cur's 2^32 µs block, at >= cur)
// into the level addressed by the highest byte where at differs from cur.
func (w *schedWheel) place(ev event) {
	x := uint64(ev.at ^ w.cur)
	l := 0
	if x != 0 {
		l = (bits.Len64(x) - 1) >> 3
	}
	idx := int(uint64(ev.at)>>(8*uint(l))) & wheelMask
	w.levels[l][idx] = append(w.levels[l][idx], ev)
	w.occ[l][idx>>6] |= 1 << (uint(idx) & 63)
	w.nwheel++
}

// next removes and returns the earliest live event with at <= limit,
// advancing the cursor no further than limit. Dead (stopped) entries met
// along the way are reclaimed here — this is where lazy cancel pays.
func (w *schedWheel) next(limit Time) (event, bool) {
	for {
		// Drain the due buffer first: it holds the slot at exactly cur,
		// including events pushed into it by callbacks mid-drain.
		for w.dueHead < len(w.due) {
			ev := w.due[w.dueHead]
			w.due[w.dueHead] = event{} // release for GC
			w.dueHead++
			if w.dueHead == len(w.due) {
				w.due = w.due[:0] // keep capacity
				w.dueHead = 0
			}
			w.total--
			if ev.dead() {
				w.ndead--
				continue
			}
			return ev, true
		}

		if w.nwheel > 0 {
			// Level 0: the slot index is the timestamp's low byte, so the
			// next occupied slot at or after cur's is the next deadline in
			// this 256 µs window.
			if i := nextSet(&w.occ[0], int(w.cur)&wheelMask); i >= 0 {
				slotTime := (w.cur &^ wheelMask) + Time(i)
				if slotTime > limit {
					return event{}, false
				}
				w.cur = slotTime
				w.fillDue(i)
				continue
			}
			// Levels 1-3: jump the cursor to the base of the next occupied
			// slot and cascade its events down. The slot at the cursor's
			// own index is always empty (placement puts an event there
			// only if its byte differs from cur's), so scanning from the
			// cursor's index inclusive is safe.
			advanced := false
			for l := 1; l < wheelLevels; l++ {
				j := nextSet(&w.occ[l], int(uint64(w.cur)>>(8*uint(l)))&wheelMask)
				if j < 0 {
					continue
				}
				shift := 8 * uint(l)
				base := (w.cur &^ (Time(1)<<(shift+8) - 1)) + Time(j)<<shift
				if base > limit {
					return event{}, false
				}
				if base <= w.cur {
					panic("netsim: timing wheel cursor failed to advance")
				}
				w.cur = base
				w.cascade(l, j)
				advanced = true
				break
			}
			if advanced {
				continue
			}
			panic("netsim: timing wheel count positive but no occupied slot")
		}

		// Wheels empty: migrate the earliest overflow block, if it is
		// within the limit. Every overflow event is in a later block than
		// anything the wheels held, so order is preserved.
		for len(w.overflow) > 0 && w.overflow[0].dead() {
			eventHeapPop(&w.overflow)
			w.total--
			w.ndead--
		}
		if len(w.overflow) == 0 {
			return event{}, false
		}
		blockBase := w.overflow[0].at &^ blockMask
		if blockBase > limit {
			return event{}, false
		}
		w.cur = blockBase
		for len(w.overflow) > 0 && w.overflow[0].at&^blockMask == blockBase {
			ev := eventHeapPop(&w.overflow)
			if ev.dead() {
				w.total--
				w.ndead--
				continue
			}
			w.place(ev)
		}
	}
}

// markDirty records that a packet-delivery event was inserted for timestamp
// at, so the slot's batch gets an order check (and sort if violated) when it
// fires. Most slots stay clean — timer-only slots never pay anything, and
// dirty slots that happen to be in order pay one linear scan.
func (w *schedWheel) markDirty(at Time) {
	if w.dirty == nil {
		w.dirty = map[Time]bool{}
	}
	w.dirty[at] = true
}

// fillDue moves level-0 slot i into the due buffer (append order = fire
// order), clearing the slot but keeping its capacity so steady-state
// scheduling stays allocation-free. Slots dirtied by deliveries get a linear
// sortedness check, then a (birth instant, order key) sort only when out of
// order — all entries share the same deadline (the cursor's timestamp), so
// this restores event.before order exactly.
func (w *schedWheel) fillDue(i int) {
	slot := w.levels[0][i]
	n := len(slot)
	start := len(w.due)
	w.due = append(w.due, slot...)
	for k := range slot {
		slot[k] = event{}
	}
	w.levels[0][i] = slot[:0]
	w.occ[0][i>>6] &^= 1 << (uint(i) & 63)
	w.nwheel -= n
	if len(w.dirty) > 0 && w.dirty[w.cur] {
		delete(w.dirty, w.cur)
		batch := w.due[start:]
		sorted := true
		for k := 1; k < len(batch); k++ {
			if batch[k].bs < batch[k-1].bs ||
				(batch[k].bs == batch[k-1].bs && batch[k].ord < batch[k-1].ord) {
				sorted = false
				break
			}
		}
		if !sorted {
			slices.SortFunc(batch, func(a, b event) int {
				if a.bs != b.bs {
					return cmp.Compare(a.bs, b.bs)
				}
				return cmp.Compare(a.ord, b.ord)
			})
		}
	}
}

// peek returns a lower bound on the earliest live deadline anywhere in the
// wheel (exact for due-buffer, level-0, and overflow entries; the slot base
// for events parked in levels 1-3), reaping dead entries that surface at
// the front of the due buffer or the overflow heap.
func (w *schedWheel) peek() (Time, bool) {
	for w.dueHead < len(w.due) {
		ev := w.due[w.dueHead]
		if !ev.dead() {
			return ev.at, true
		}
		w.due[w.dueHead] = event{}
		w.dueHead++
		if w.dueHead == len(w.due) {
			w.due = w.due[:0]
			w.dueHead = 0
		}
		w.total--
		w.ndead--
	}
	if w.nwheel > 0 {
		if i := nextSet(&w.occ[0], int(w.cur)&wheelMask); i >= 0 {
			return (w.cur &^ wheelMask) + Time(i), true
		}
		best := maxTime
		for l := 1; l < wheelLevels; l++ {
			j := nextSet(&w.occ[l], int(uint64(w.cur)>>(8*uint(l)))&wheelMask)
			if j < 0 {
				continue
			}
			shift := 8 * uint(l)
			base := (w.cur &^ (Time(1)<<(shift+8) - 1)) + Time(j)<<shift
			if base < best {
				best = base
			}
		}
		if best != maxTime {
			return best, true
		}
	}
	for len(w.overflow) > 0 && w.overflow[0].dead() {
		eventHeapPop(&w.overflow)
		w.total--
		w.ndead--
	}
	if len(w.overflow) > 0 {
		return w.overflow[0].at, true
	}
	return 0, false
}

// cascade re-places the events of slot (l, j) — the cursor has just reached
// the slot's base — into strictly lower levels, dropping dead entries.
// Iteration order is preserved, and place never appends back into the slot
// being drained, so the backing array is safely reused.
func (w *schedWheel) cascade(l, j int) {
	slot := w.levels[l][j]
	w.occ[l][j>>6] &^= 1 << (uint(j) & 63)
	w.nwheel -= len(slot)
	for k := range slot {
		ev := slot[k]
		slot[k] = event{}
		if ev.dead() {
			w.total--
			w.ndead--
			continue
		}
		w.place(ev)
	}
	w.levels[l][j] = slot[:0]
}

// compact sweeps every slot, the due buffer, and the overflow heap,
// dropping dead entries in place. Order is preserved: each slot (and the
// due buffer) is filtered without reordering, and the overflow heap is
// re-heapified, which keeps its (at, seq) pop order. O(entries + slots);
// triggered by Scheduler.Stop/Reset when the dead outnumber the live, so
// its cost amortizes against the cancellations that created the garbage.
func (w *schedWheel) compact() {
	live := func(evs []event) []event {
		kept := evs[:0]
		for _, ev := range evs {
			if !ev.dead() {
				kept = append(kept, ev)
			}
		}
		for i := len(kept); i < len(evs); i++ {
			evs[i] = event{} // release Timer pointers for GC
		}
		return kept
	}

	// The consumed prefix of due is already zeroed; filter the remainder
	// down onto the front of the backing array.
	rest := live(append(w.due[:0], w.due[w.dueHead:]...))
	for i := len(rest); i < len(w.due); i++ {
		w.due[i] = event{}
	}
	w.due = rest
	w.dueHead = 0

	w.nwheel = 0
	for l := 0; l < wheelLevels; l++ {
		for j := 0; j < wheelSlots; j++ {
			if len(w.levels[l][j]) == 0 {
				continue
			}
			slot := live(w.levels[l][j])
			w.levels[l][j] = slot
			if len(slot) == 0 {
				w.occ[l][j>>6] &^= 1 << (uint(j) & 63)
			}
			w.nwheel += len(slot)
		}
	}

	w.overflow = live(w.overflow)
	for i := len(w.overflow)/2 - 1; i >= 0; i-- {
		siftDown(w.overflow, i)
	}

	w.total = len(w.due) + w.nwheel + len(w.overflow)
	w.ndead = 0
}

// nextSet returns the index of the first set bit at or after from in a
// 256-bit bitmap, or -1.
func nextSet(bm *[wheelSlots / 64]uint64, from int) int {
	word := from >> 6
	mask := ^uint64(0) << (uint(from) & 63)
	for ; word < len(bm); word++ {
		if b := bm[word] & mask; b != 0 {
			return word<<6 + bits.TrailingZeros64(b)
		}
		mask = ^uint64(0)
	}
	return -1
}
