package main

import (
	"reflect"
	"slices"
	"testing"

	"pim/internal/netsim"
)

const sec = netsim.Second

func TestExpectedWindowAroundJoinAndLeave(t *testing.T) {
	joined := []interval{{10 * sec, 20 * sec}, {30 * sec, forever}}
	for _, c := range []struct {
		at   netsim.Time
		want bool
	}{
		{11 * sec, false},                    // joined less than settle before
		{12 * sec, true},                     // exactly settle after the join
		{19 * sec, true},                     // exactly grace before the leave
		{19*sec + 1, false},                  // leave inside the grace
		{25 * sec, false},                    // not a member
		{31 * sec, false},                    // rejoined, still settling
		{32 * sec, true},                     // rejoined and settled
		{forever - grace - 1, true},          // an open interval never ends
		{12*sec - netsim.Microsecond, false}, // one tick short of settled
	} {
		if got := expected(joined, c.at, nil); got != c.want {
			t.Errorf("expected(t=%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestExpectedWindowAroundLinkOutages(t *testing.T) {
	joined := []interval{{0, forever}}
	fs := []flap{{edge: 7, down: 40 * sec, up: 50 * sec}}

	// An engine that repairs on route changes is excused only around
	// each change.
	black := blackouts(fs, true)
	want := []interval{{39 * sec, 42 * sec}, {49 * sec, 52 * sec}}
	if !reflect.DeepEqual(black, want) {
		t.Fatalf("repairing blackouts = %v, want %v", black, want)
	}
	for _, c := range []struct {
		at   netsim.Time
		want bool
	}{
		{39*sec - 1, true}, {39 * sec, false}, {41 * sec, false}, {42 * sec, true},
		{45 * sec, true}, {49 * sec, false}, {52 * sec, true},
	} {
		if got := expected(joined, c.at, black); got != c.want {
			t.Errorf("repairing: expected(t=%v) = %v, want %v", c.at, got, c.want)
		}
	}

	// One that repairs only on its own timers is excused for the outage.
	black = blackouts(fs, false)
	if want := []interval{{39 * sec, 52 * sec}}; !reflect.DeepEqual(black, want) {
		t.Fatalf("timer blackouts = %v, want %v", black, want)
	}
	if expected(joined, 45*sec, black) {
		t.Error("timer-repaired engine expected to deliver inside the outage")
	}
	if !expected(joined, 52*sec, black) {
		t.Error("timer-repaired engine excused after the outage settled")
	}
}

func TestJudgeCountsOkDupStrayAndDelay(t *testing.T) {
	g := group{
		members: []member{
			{router: 1, joined: []interval{{0, forever}}},
			{router: 2, joined: []interval{{0, 4500 * netsim.Millisecond}}}, // leaves early
		},
		senders: []sender{{router: 3, sends: []netsim.Time{3 * sec, 4 * sec, 6 * sec}}},
	}
	g.index()
	a, b := newSlot(&g), newSlot(&g)
	a.receive(&g, 3*sec, 3*sec+20*netsim.Millisecond)
	a.receive(&g, 3*sec, 3*sec+25*netsim.Millisecond) // duplicate
	a.receive(&g, 6*sec, 6*sec+40*netsim.Millisecond)
	a.receive(&g, 7*sec, 7*sec+1)                     // never sent: stray
	b.receive(&g, 3*sec, 3*sec+30*netsim.Millisecond) // expected for b as well

	got := judge([]group{g}, [][]*slot{{a, b}}, nil)
	// a: all three sends expected, 4 s lost. b: only 3 s (4 s is inside
	// the grace before its leave at 4.5 s).
	if got.expected != 4 || got.ok != 3 || got.dup != 1 || got.strays != 1 {
		t.Fatalf("tally = expected %d ok %d dup %d strays %d, want 4 3 1 1",
			got.expected, got.ok, got.dup, got.strays)
	}
	for ms, n := range map[int]int64{20: 1, 30: 1, 40: 1} {
		if got.delayMS[ms] != n {
			t.Errorf("delayMS[%d] = %d, want %d", ms, got.delayMS[ms], n)
		}
	}
	if p := histPercentile(got.delayMS[:], 50); p != 30 {
		t.Errorf("p50 delay = %v ms, want 30", p)
	}
}

func TestFirstDataAfterRejoin(t *testing.T) {
	g := group{senders: []sender{{sends: []netsim.Time{sec, 2 * sec}}}}
	g.index()
	sl := newSlot(&g)
	sl.join(500 * netsim.Millisecond)
	sl.receive(&g, sec, sec+80*netsim.Millisecond)
	sl.receive(&g, 2*sec, 2*sec+80*netsim.Millisecond) // not a first packet
	if !slices.Equal(sl.firstData, []netsim.Time{580 * netsim.Millisecond}) {
		t.Fatalf("firstData = %v", sl.firstData)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	s, err := findWorkload("churn-flap")
	if err != nil {
		t.Fatal(err)
	}
	a, b := makeInputs(s, 7), makeInputs(s, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	if reflect.DeepEqual(a.groups, makeInputs(s, 8).groups) {
		t.Fatal("different seeds produced the same schedule")
	}
	if len(a.flaps) != s.churn.flaps {
		t.Fatalf("got %d flaps, want %d", len(a.flaps), s.churn.flaps)
	}
	flips := 0
	for _, g := range a.groups {
		if len(g.sendIdx) != len(g.sendAt) {
			t.Fatalf("group %v: send instants not unique", g.addr)
		}
		for _, m := range g.members {
			flips += len(m.joined) - 1
			for i, iv := range m.joined {
				if iv.from >= iv.to || (i > 0 && iv.from <= m.joined[i-1].to) {
					t.Fatalf("member %d: intervals %v not sorted and disjoint", m.router, m.joined)
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("churn schedule has no rejoins")
	}
}
