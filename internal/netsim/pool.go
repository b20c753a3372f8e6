package netsim

// Pooled transmit frames: the steady-state control plane of every protocol
// here is periodic soft-state refresh, and with closure-based delivery each
// refresh would pay one closure plus one marshal buffer plus one decoded
// Packet per link crossing. A frame makes the whole crossing a single reusable
// object: Node.Send marshals into a recycled buffer, the delivery event
// carries the frame by pointer (no closure), the arrival decodes into the
// frame's own header scratch, and after the synchronous fan-out completes
// the frame returns to the free list of the scheduler that fired it.
//
// Ownership contract (DESIGN.md §13): everything a handler receives — the
// *packet.Packet, its Payload, and any decoded view aliasing the Payload —
// is BORROWED for the duration of the HandlePacket call. A handler that
// retains any of it past return must copy. The poison-on-release debug mode
// (SetPoisonFrames) overwrites released frame bytes with 0xDB so a retained
// alias misreads loudly instead of silently going stale;
// TestScenariosPoisonedPool runs every scenario under it.
//
// Pools are per-Scheduler, hence per-shard: a shard's frames are touched
// only by the goroutine executing that shard's window, so the free list
// needs no locking. Frames crossing shards transfer ownership to the
// destination shard's pool at the exchange barrier.

import (
	"sync/atomic"

	"pim/internal/addr"
	"pim/internal/packet"
)

// poisonOn enables poison-on-release: frames are filled with poisonByte as
// they return to the free list, so any handler that retained a borrowed
// alias reads garbage deterministically instead of stale-but-plausible data.
var poisonOn atomic.Bool

// poisonByte fills released frame buffers in poison mode.
const poisonByte = 0xDB

// PoisonFrames reports whether poison-on-release is active.
func PoisonFrames() bool { return poisonOn.Load() }

// SetPoisonFrames enables or disables poison-on-release, returning the
// previous setting. Poisoning is a debug mode: it turns a violation of the
// borrowed-frame contract into deterministic garbage (checksum failures,
// impossible fields) at the point of misuse.
func SetPoisonFrames(on bool) (prev bool) { return poisonOn.Swap(on) }

// frame is one in-flight link crossing: the marshalled bytes plus the
// delivery route, owned by exactly one scheduler's free list when idle and
// by the event queue while in flight.
type frame struct {
	net     *Network
	from    *Iface
	link    *Link
	nextHop addr.IP
	shard   int
	buf     []byte
	// hdr is the single per-crossing decode; rcv is the per-receiver header
	// view handed to handlers (each station gets a fresh copy of hdr in rcv,
	// so one handler mutating its view cannot leak into the next station's).
	// Both live in the frame so the warm delivery path allocates nothing.
	hdr packet.Packet
	rcv packet.Packet
	// next links the scheduler free list.
	next *frame
}

// framePool is a scheduler-private free list. Single-goroutine by
// construction (per-shard schedulers execute on one goroutine at a time),
// so no locking.
type framePool struct {
	free *frame
}

func (p *framePool) get() *frame {
	f := p.free
	if f == nil {
		return new(frame)
	}
	p.free = f.next
	f.next = nil
	return f
}

func (p *framePool) put(f *frame) {
	if poisonOn.Load() {
		for i := range f.buf {
			f.buf[i] = poisonByte
		}
		f.hdr = packet.Packet{}
		f.rcv = packet.Packet{}
	}
	f.next = p.free
	p.free = f
}

// deliverFrame takes one frame off the link: a single in-place decode into
// the frame's header scratch, then the fan-out to every eligible station.
func (n *Network) deliverFrame(f *frame) {
	err := packet.UnmarshalInto(&f.hdr, f.buf)
	n.fanout(f.from, f.link, &f.hdr, err, f.nextHop, f.shard, &f.rcv)
}
