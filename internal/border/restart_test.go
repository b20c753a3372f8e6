package border_test

import (
	"testing"

	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
)

// TestRestartedRegionRouterReadvertises pins the demand-driven side of the
// member advertisements: a restarted region router is silent until it hears
// the region's next advertisement, then originates at once, so the border
// relearns its members within one QueryInterval of its own periodic ad.
func TestRestartedRegionRouterReadvertises(t *testing.T) {
	f := build(t)
	d2 := f.dense["d2"]
	f.hosts["hd2"].Join(f.group)
	f.run(3 * netsim.Second)
	if d2.Metrics.Get(metrics.CtrlMemberAd) == 0 {
		t.Fatal("region router never advertised before the restart")
	}

	origin := d2.Node.Addr()
	originated := 0
	f.net.Trace = func(ev netsim.TraceEvent) {
		if ev.Pkt.Protocol != packet.ProtoPIM {
			return
		}
		typ, body, err := pimmsg.Open(ev.Pkt.Payload)
		if err != nil || typ != pimmsg.TypeMemberAd {
			return
		}
		if ad, err := pimmsg.UnmarshalMemberAd(body); err == nil && ad.Origin == origin {
			originated++
		}
	}

	d2.Restart()
	// The border's instance started with the fixture at t=0, so its next
	// periodic advertisement goes out at t=QueryInterval.
	borderAd := pimdm.DefaultQueryInterval
	f.net.Sched.RunUntil(borderAd - netsim.Millisecond)
	sent := d2.Metrics.Get(metrics.CtrlMemberAd)
	if originated != 0 {
		t.Fatalf("restarted router originated %d ads before hearing the region", originated)
	}

	// "At once": well inside one QueryInterval, and before the restarted
	// router's own query timer (phase t=5s) fires again.
	f.net.Sched.RunUntil(borderAd + netsim.Second)
	if got := d2.Metrics.Get(metrics.CtrlMemberAd); got <= sent {
		t.Fatalf("ctrl.memberad stayed at %d after the border's periodic ad", got)
	}
	if originated == 0 {
		t.Fatal("restarted router did not originate within one QueryInterval of the border's ad")
	}
}
