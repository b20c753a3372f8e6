package core

import (
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// entryKind maps an MFIB key to the telemetry entry-kind value carried by
// EntryCreate/EntryExpire events.
func entryKind(k mfib.Key) int64 {
	switch {
	case k.Source == 0 && k.RPBit:
		return telemetry.EntryWC
	case k.RPBit:
		return telemetry.EntryRpt
	default:
		return telemetry.EntrySG
	}
}

// upsert wraps MFIB.Upsert, publishing EntryCreate on first installation.
// All entry creation in the engine goes through here so the telemetry stream
// sees every forwarding-state birth.
func (r *Router) upsert(k mfib.Key, now netsim.Time) (*mfib.Entry, bool) {
	e, created := r.MFIB.Upsert(k, now)
	if created && r.Telemetry() != nil {
		r.Emit(telemetry.Event{
			Kind: telemetry.EntryCreate, Iface: -1, Source: k.Source, Group: k.Group,
			Value: entryKind(k),
		})
	}
	return e, created
}

// deleteEntry wraps MFIB.Delete, publishing EntryExpire when the key existed.
func (r *Router) deleteEntry(k mfib.Key) {
	if r.Telemetry() != nil && r.MFIB.Get(k) != nil {
		r.Emit(telemetry.Event{
			Kind: telemetry.EntryExpire, Iface: -1, Source: k.Source, Group: k.Group,
			Value: entryKind(k),
		})
	}
	r.MFIB.Delete(k)
}
