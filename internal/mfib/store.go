package mfib

import (
	"cmp"
	"slices"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// This file holds the entry store behind Table (DESIGN.md §16): a
// map[Key]*Entry of heap entries. Lookups are one map probe; the
// deterministic walks snapshot the selected keys and sort them in the
// canonical (Group, Source, RPBit) order.
//
// Deleted entries are never reused: Delete drops the map slot, so entries
// returned by Sweep stay readable for as long as the caller holds them, and
// a re-created key gets a fresh object. The table still stamps a fresh
// Life() on every creation, so timer closures can detect delete/re-create
// across their delay by comparing incarnations rather than pointers.

// compareKeys is the canonical walk order: (Group, Source, RPBit).
func compareKeys(a, b Key) int {
	if a.Group != b.Group {
		return cmp.Compare(a.Group, b.Group)
	}
	if a.Source != b.Source {
		return cmp.Compare(a.Source, b.Source)
	}
	return boolToInt(a.RPBit) - boolToInt(b.RPBit)
}

// Table stores a router's multicast forwarding entries.
type Table struct {
	m map[Key]*Entry

	// lifeSeq stamps each created entry with a fresh incarnation id, so
	// delete/re-create is detectable.
	lifeSeq uint64

	// walks is the per-depth key-snapshot scratch for the deterministic
	// walks; walks nest (a ForGroup inside a ForEach), so each depth keeps
	// its own reusable buffer.
	walks [][]Key
	depth int
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{m: map[Key]*Entry{}} }

// Get returns the entry for the exact key, or nil.
func (t *Table) Get(k Key) *Entry { return t.m[k] }

// Wildcard returns the (*,G) entry, or nil.
func (t *Table) Wildcard(g addr.IP) *Entry {
	return t.Get(Key{Group: g, RPBit: true})
}

// SG returns the (S,G) shortest-path entry, or nil.
func (t *Table) SG(s, g addr.IP) *Entry {
	return t.Get(Key{Source: s, Group: g})
}

// SGRpt returns the (S,G) RP-bit negative-cache entry, or nil.
func (t *Table) SGRpt(s, g addr.IP) *Entry {
	return t.Get(Key{Source: s, Group: g, RPBit: true})
}

// Upsert returns the entry for k, creating it if absent; created reports
// whether it was new.
func (t *Table) Upsert(k Key, now netsim.Time) (e *Entry, created bool) {
	if e = t.m[k]; e != nil {
		return e, false
	}
	t.lifeSeq++
	e = NewEntry(k, now)
	e.life = t.lifeSeq
	t.m[k] = e
	return e, true
}

// Delete removes an entry.
func (t *Table) Delete(k Key) { delete(t.m, k) }

// Len returns the number of entries — the "state" axis of the paper's
// overhead metric.
func (t *Table) Len() int { return len(t.m) }

// ForGroup calls fn for every entry of the group, in deterministic order.
func (t *Table) ForGroup(g addr.IP, fn func(*Entry)) {
	t.walkSelected(func(k Key) bool { return k.Group == g }, fn)
}

// ForEach calls fn for every entry in deterministic order.
func (t *Table) ForEach(fn func(*Entry)) {
	t.walkSelected(nil, fn)
}

// walkSelected snapshots the selected keys, then visits each entry that is
// still present, so fn may insert or delete entries mid-walk: entries
// deleted after the snapshot are skipped, entries created after it are not
// visited.
func (t *Table) walkSelected(sel func(Key) bool, fn func(*Entry)) {
	d := t.depth
	t.depth++
	if d >= len(t.walks) {
		t.walks = append(t.walks, nil)
	}
	keys := t.walks[d][:0]
	for k := range t.m {
		if sel == nil || sel(k) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compareKeys)
	t.walks[d] = keys
	for _, k := range keys {
		if e := t.m[k]; e != nil {
			fn(e)
		}
	}
	t.depth--
}

// Sweep removes entries whose DeleteAt deadline has passed and prunes
// expired non-local oifs; it returns the removed entries so the protocol
// can emit triggered prunes.
func (t *Table) Sweep(now netsim.Time) []*Entry {
	var removed []*Entry
	t.walkSelected(nil, func(e *Entry) {
		for i := int(e.noif) - 1; i >= 0; i-- {
			o := e.oifAt(i)
			if !o.LocalMember && now > o.Expires {
				e.oifRemoveAt(i)
				e.Touch()
			}
		}
		if e.DeleteAt != 0 && now >= e.DeleteAt {
			removed = append(removed, e)
			t.Delete(e.Key)
		}
	})
	slices.SortFunc(removed, func(a, b *Entry) int {
		if a.Key.Group != b.Key.Group {
			return cmp.Compare(a.Key.Group, b.Key.Group)
		}
		return cmp.Compare(a.Key.Source, b.Key.Source)
	})
	return removed
}

// Footprint sizes, for the Bytes estimator. Every entry is heap-allocated
// individually, so each one really occupies its allocator size class
// (entryAlloc rounds up to the 32-byte granularity the relevant classes
// follow), and the map adds the key copy and entry pointer in the bucket
// plus amortized bucket headers on top (mapEntryOverhead).
const (
	entryBytes       = int64(unsafe.Sizeof(Entry{}))
	oifBytes         = int64(unsafe.Sizeof(OIF{}))
	planBytes        = int64(unsafe.Sizeof(plan{}))
	keyBytes         = int64(unsafe.Sizeof(Key{}))
	ptrBytes         = int64(unsafe.Sizeof((*Entry)(nil)))
	entryAlloc       = (entryBytes + 31) &^ 31
	mapEntryOverhead = keyBytes + ptrBytes + 16
)

// Bytes estimates the table's resident state footprint: the heap entries
// plus map overhead, plus the spill and compiled-plan capacities hanging
// off them. It is a deterministic estimator, not a heap measurement.
func (t *Table) Bytes() int64 {
	var b int64
	for _, e := range t.m {
		b += entryAlloc + mapEntryOverhead
		b += int64(cap(e.oifSpill)) * oifBytes
		b += int64(cap(e.plans)) * planBytes
		for i := range e.plans {
			b += int64(cap(e.plans[i].out)) * ptrBytes
		}
	}
	return b
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
