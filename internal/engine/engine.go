// Package engine is the router lifecycle every multicast engine (core,
// pimdm, dvmrp, cbt, mospf) and the IGMP querier share, written once: the
// started/epoch pair behind Start, Stop and Restart, the epoch-guarded
// timer, the lifecycle telemetry events, the one way an engine is given its
// telemetry bus, and the two soft-state tables several engines keep
// (neighbor liveness and local membership).
//
// The epoch guard is how the §3.8 soft-state restart contract is enforced
// (DESIGN.md §9): End bumps the epoch, and every timer armed through After
// closes over the epoch it was armed under and does nothing once that epoch
// has ended, so a crashed incarnation's timers can never act on the next
// incarnation's state. A timer body that does run publishes TimerFire
// carrying its epoch, which telemetry.Checker compares with the engine's
// current epoch (DESIGN.md §10).
package engine

import (
	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// Lifecycle is embedded by every engine. Build it with New; the zero value
// has no node.
type Lifecycle struct {
	node *netsim.Node
	// tel is the telemetry bus; nil keeps every publish site of the engine
	// on the zero-cost path (one untaken branch per would-be event).
	tel     *telemetry.Bus
	started bool
	epoch   uint64
}

// New returns the lifecycle of an engine running on nd, stopped, in epoch 0.
func New(nd *netsim.Node) Lifecycle { return Lifecycle{node: nd} }

// SetTelemetry attaches the bus the engine publishes to (nil detaches).
// Call it before Start so the bus sees the first EpochStart.
func (l *Lifecycle) SetTelemetry(b *telemetry.Bus) { l.tel = b }

// Telemetry returns the attached bus, nil when none. Every publish site is
// one `if r.Telemetry() != nil` guard around one Emit call, with the event
// built inside the guard (the telemetry package's zero-cost contract).
func (l *Lifecycle) Telemetry() *telemetry.Bus { return l.tel }

// Emit publishes ev stamped with the current simulated time, this router and
// the current epoch. The bus must be attached: call Emit only inside a
// Telemetry() nil-check.
func (l *Lifecycle) Emit(ev telemetry.Event) {
	ev.At, ev.Router, ev.Epoch = l.Now(), l.node.ID, l.epoch
	l.tel.Publish(ev)
}

// Started reports whether the engine is running.
func (l *Lifecycle) Started() bool { return l.started }

// Now returns the node's simulated time.
func (l *Lifecycle) Now() netsim.Time { return l.node.Sched().Now() }

// Begin marks the engine started and publishes EpochStart with state, the
// learned-state count the engine starts with (the checker requires 0 after a
// restart). It returns false, doing nothing, when the engine already runs;
// the engine's Start returns at once then.
func (l *Lifecycle) Begin(state int) bool {
	if l.started {
		return false
	}
	l.started = true
	if l.tel != nil {
		l.Emit(telemetry.Event{Kind: telemetry.EpochStart, Iface: -1, Value: int64(state)})
	}
	return true
}

// End marks the engine stopped, publishes EpochEnd with state, and ends the
// epoch so every timer armed in it becomes inert. It returns false, doing
// nothing, when the engine is not running; the engine's Stop returns at once
// then, and otherwise goes on to discard its soft state.
func (l *Lifecycle) End(state int) bool {
	if !l.started {
		return false
	}
	l.started = false
	if l.tel != nil {
		l.Emit(telemetry.Event{Kind: telemetry.EpochEnd, Iface: -1, Value: int64(state)})
	}
	l.epoch++
	return true
}

// After schedules fn d from now under the current epoch: if the engine is
// stopped or restarted before the timer fires, fn never runs. A body that
// does run first publishes TimerFire with the epoch it was armed under.
func (l *Lifecycle) After(d netsim.Time, fn func()) *netsim.Timer {
	ep := l.epoch
	return l.node.Sched().After(d, func() {
		if l.epoch != ep {
			return
		}
		if l.tel != nil {
			l.Emit(telemetry.Event{Kind: telemetry.TimerFire, Iface: -1})
		}
		fn()
	})
}
