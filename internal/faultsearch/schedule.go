// Package faultsearch is the systematic fault-schedule search harness: it
// enumerates and randomly samples schedules of injected faults — loss
// placement by link/class/time-window, crash/restart timing swept across
// protocol timer boundaries, link cuts and flaps, and bounded per-link
// message reordering — over small topologies for every routing engine in
// the repo, runs each schedule under the deployment glue with the §3.8
// invariant checker in fail-fast mode plus end-to-end delivery oracles,
// minimizes every violating schedule delta-debugging style, and emits the
// survivors as self-contained .pim scenarios whose expectations *record*
// the violation. Dropped into scenarios/found/, each counterexample passes
// iff its bug still reproduces, so the regression corpus grows itself.
package faultsearch

import (
	"fmt"
	"strings"

	"pim/internal/netsim"
)

// Kind enumerates the fault-clause kinds the search composes.
type Kind int

const (
	// KindLoss applies Bernoulli loss to one edge (or all) over a window.
	KindLoss Kind = iota
	// KindReorder applies a bounded reorder window to one edge (or all).
	KindReorder
	// KindCrash fail-stops a router at Start and restarts it at Stop.
	KindCrash
	// KindCut takes an edge down at Start and back up at Stop.
	KindCut
	// KindFlap runs bounded down/up cycles on an edge starting at Start.
	KindFlap
)

func (k Kind) String() string {
	switch k {
	case KindLoss:
		return "loss"
	case KindReorder:
		return "reorder"
	case KindCrash:
		return "crash"
	case KindCut:
		return "cut"
	case KindFlap:
		return "flap"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Class mirrors the script's message-class filter for loss/reorder clauses.
type Class int

const (
	// ClassAll matches every packet.
	ClassAll Class = iota
	// ClassControl matches routing-protocol packets only.
	ClassControl
	// ClassData matches data packets only.
	ClassData
)

func (c Class) suffix() string {
	switch c {
	case ClassControl:
		return " control"
	case ClassData:
		return " data"
	}
	return ""
}

// Clause is one fault in a schedule. Times are script times in whole
// seconds (the search samples on a 1s grid; engines start at unicast
// convergence C and script time t maps to simulated C+2s+t, so t ≡ 8
// (mod 10) lands exactly on the fast-timer tick grid C+10ks).
type Clause struct {
	Kind             Kind
	Edge             int         // loss/reorder: -1 = all links; cut/flap: required
	Router           int         // crash only
	Start            int         // seconds; crash/cut: fault onset
	Stop             int         // seconds; loss/reorder cleared, crashed router restarted, cut edge restored
	Rate             float64     // loss
	Window           netsim.Time // reorder
	Class            Class       // loss/reorder
	Down, Up, Cycles int         // flap: seconds per half-cycle, cycle count
}

// scope is the dedupe key: at most one clause per (kind, target), so a
// schedule never stacks two conflicting settings on the same knob.
func (c Clause) scope() string {
	switch c.Kind {
	case KindCrash:
		return fmt.Sprintf("crash/r%d", c.Router)
	case KindCut, KindFlap:
		// A flap and a cut on the same edge interleave down/up events
		// unpredictably; share a scope so they exclude each other.
		return fmt.Sprintf("updown/%d", c.Edge)
	default:
		return fmt.Sprintf("%s/%d", c.Kind, c.Edge)
	}
}

func (c Clause) String() string {
	edge := "all"
	if c.Edge >= 0 {
		edge = fmt.Sprintf("edge %d", c.Edge)
	}
	switch c.Kind {
	case KindLoss:
		return fmt.Sprintf("loss %s rate %.2g%s [%ds,%ds)", edge, c.Rate, c.Class.suffix(), c.Start, c.Stop)
	case KindReorder:
		return fmt.Sprintf("reorder %s window %v%s [%ds,%ds)", edge, c.Window, c.Class.suffix(), c.Start, c.Stop)
	case KindCrash:
		return fmt.Sprintf("crash r%d at %ds restart %ds", c.Router, c.Start, c.Stop)
	case KindCut:
		return fmt.Sprintf("cut %s [%ds,%ds)", edge, c.Start, c.Stop)
	case KindFlap:
		return fmt.Sprintf("flap %s down=%ds up=%ds cycles=%d from %ds", edge, c.Down, c.Up, c.Cycles, c.Start)
	}
	return "clause(?)"
}

// Schedule is one point in the search space: a topology template, a
// protocol configuration, a fault seed (the injector's loss/reorder stream
// seed), and the fault clauses.
type Schedule struct {
	Topo    string // template name (see Templates)
	Proto   string // protocol config name (see Protocols)
	Seed    int64  // faultseed for the rendered script
	Clauses []Clause
}

func (s Schedule) String() string {
	parts := make([]string, len(s.Clauses))
	for i, c := range s.Clauses {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%s/%s seed=%d {%s}", s.Topo, s.Proto, s.Seed, strings.Join(parts, "; "))
}

// Oracle is one end-to-end delivery expectation of a template: host must
// receive at least Min packets of group. The search renders it as
// `expect <host> received <group> >= <min>`; a found counterexample whose
// verdict is this oracle's failure renders the negation (`< min`) so the
// corpus file passes iff the delivery bug reproduces.
type Oracle struct {
	Host  string
	Group string
	Min   int
}

// Template is a small topology with fixed traffic choreography. The
// timeline implements the fairness contract that makes "delivery oracle
// failed" a meaningful verdict:
//
//   - every fault clause is over by FaultDeadline (loss/reorder cleared,
//     crashed routers restarted, cut links healed, flaps finished);
//   - a grace period follows, long enough for the fast-timer deployment to
//     rebuild (prune holdtimes expire at 60s, refresh at 20s, IGMP requery
//     at 10s);
//   - then a probe phase exercises fresh state: a second group G1 joined
//     and sent to only after the grace period, whose delivery floor no
//     legitimate recovery can miss.
type Template struct {
	Name             string
	Edges            string // `topo edges` operand
	NumEdges         int
	Routers          int
	RP               string // rendered for protocols with NeedsRP (doubles as CBT core)
	Transit          []int  // crash candidates: routers hosting no script host
	Src, Recv, Probe string // router refs for the three hosts
	Oracles          []Oracle
}

// The schedule timeline constants (script seconds).
const (
	// FaultWindowStart/FaultWindowEnd bound every clause's activity.
	FaultWindowStart = 5
	FaultWindowEnd   = 95
	// FaultDeadline is when the rendered script force-clears global knobs.
	FaultDeadline = 100
	// ProbeJoin/ProbeSend start the fresh-state probe after the grace
	// period; ProbeCount packets go out every 2s.
	ProbeJoin  = 140
	ProbeSend  = 150
	ProbeCount = 10
	// RunFor is the total scripted run length.
	RunFor = 220
	// steadyCount packets of G0 leave src every 1s from t=3s.
	steadyCount = 200
)

// Templates are the search topologies: a 3-router chain (single path, so
// every fault is on the path) and a 4-router diamond (two equal-cost
// 2-hop paths, so cuts and crashes force reroutes).
var Templates = []Template{
	{
		Name:     "chain3",
		Edges:    "0-1 1-2",
		NumEdges: 2,
		Routers:  3,
		RP:       "r1",
		Transit:  []int{1},
		Src:      "r0",
		Recv:     "r2",
		Probe:    "r2",
		Oracles: []Oracle{
			{Host: "recv", Group: "G0", Min: 50},
			{Host: "probe", Group: "G1", Min: 8},
		},
	},
	{
		Name:     "diamond4",
		Edges:    "0-1 0-2 1-3 2-3",
		NumEdges: 4,
		Routers:  4,
		RP:       "r1",
		Transit:  []int{1, 2},
		Src:      "r0",
		Recv:     "r3",
		Probe:    "r3",
		Oracles: []Oracle{
			{Host: "recv", Group: "G0", Min: 50},
			{Host: "probe", Group: "G1", Min: 8},
		},
	},
}

// ProtoConfig is one engine configuration under search.
type ProtoConfig struct {
	Name    string
	Line    string // `protocol` operand(s), timers=fast appended at render
	NeedsRP bool
}

// Protocols are the six engine configurations every search sweep covers.
var Protocols = []ProtoConfig{
	{Name: "pim-sm", Line: "pim-sm", NeedsRP: true},
	{Name: "pim-sm-never", Line: "pim-sm spt=never", NeedsRP: true},
	{Name: "pim-dm", Line: "pim-dm"},
	{Name: "dvmrp", Line: "dvmrp"},
	{Name: "cbt", Line: "cbt", NeedsRP: true},
	{Name: "mospf", Line: "mospf"},
}

func templateByName(name string) (Template, error) {
	for _, t := range Templates {
		if t.Name == name {
			return t, nil
		}
	}
	return Template{}, fmt.Errorf("faultsearch: unknown template %q", name)
}

func protoByName(name string) (ProtoConfig, error) {
	for _, p := range Protocols {
		if p.Name == name {
			return p, nil
		}
	}
	return ProtoConfig{}, fmt.Errorf("faultsearch: unknown protocol config %q", name)
}

func edgeRef(e int) string {
	if e < 0 {
		return "all"
	}
	return fmt.Sprintf("%d", e)
}

// renderClause emits the `at` statements realizing one clause, including
// the clearing statement that upholds the fairness contract.
func renderClause(b *strings.Builder, c Clause) {
	switch c.Kind {
	case KindLoss:
		fmt.Fprintf(b, "at %ds loss %s %.2g%s\n", c.Start, edgeRef(c.Edge), c.Rate, c.Class.suffix())
		fmt.Fprintf(b, "at %ds loss %s 0%s\n", c.Stop, edgeRef(c.Edge), c.Class.suffix())
	case KindReorder:
		fmt.Fprintf(b, "at %ds reorder %s %dms%s\n", c.Start, edgeRef(c.Edge), int(c.Window/netsim.Millisecond), c.Class.suffix())
		fmt.Fprintf(b, "at %ds reorder %s 0%s\n", c.Stop, edgeRef(c.Edge), c.Class.suffix())
	case KindCrash:
		fmt.Fprintf(b, "at %ds crash r%d\n", c.Start, c.Router)
		fmt.Fprintf(b, "at %ds restart r%d\n", c.Stop, c.Router)
	case KindCut:
		fmt.Fprintf(b, "at %ds linkdown %d\n", c.Start, c.Edge)
		fmt.Fprintf(b, "at %ds linkup %d\n", c.Stop, c.Edge)
	case KindFlap:
		fmt.Fprintf(b, "at %ds flap %d down=%ds up=%ds cycles=%d\n", c.Start, c.Edge, c.Down, c.Up, c.Cycles)
	}
}

// Render emits the schedule as a runnable .pim script in search form: the
// template's delivery oracles as positive expectations, no violation
// expectation (the search reads the checker directly).
func (s Schedule) Render() (string, error) {
	return s.render(nil, "")
}

func (s Schedule) render(negate []Oracle, header string) (string, error) {
	t, err := templateByName(s.Topo)
	if err != nil {
		return "", err
	}
	p, err := protoByName(s.Proto)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if header != "" {
		b.WriteString(header)
	}
	fmt.Fprintf(&b, "topo edges %s\n", t.Edges)
	b.WriteString("unicast oracle\n")
	rp := ""
	if p.NeedsRP {
		rp = " rp " + t.RP
	}
	fmt.Fprintf(&b, "group G0%s\n", rp)
	fmt.Fprintf(&b, "group G1%s\n", rp)
	fmt.Fprintf(&b, "faultseed %d\n", s.Seed)
	fmt.Fprintf(&b, "protocol %s timers=fast\n", p.Line)
	fmt.Fprintf(&b, "host src %s\n", t.Src)
	fmt.Fprintf(&b, "host recv %s\n", t.Recv)
	fmt.Fprintf(&b, "host probe %s\n", t.Probe)
	fmt.Fprintf(&b, "at 1s join recv G0\n")
	fmt.Fprintf(&b, "at 3s send src G0 count=%d every=1s\n", steadyCount)
	for _, c := range s.Clauses {
		renderClause(&b, c)
	}
	// Belt-and-braces clearing of the global knobs at the fault deadline:
	// even a mis-generated clause cannot leak faults into the probe phase.
	fmt.Fprintf(&b, "at %ds loss all 0\n", FaultDeadline)
	fmt.Fprintf(&b, "at %ds reorder all 0\n", FaultDeadline)
	fmt.Fprintf(&b, "at %ds join probe G1\n", ProbeJoin)
	fmt.Fprintf(&b, "at %ds send src G1 count=%d every=2s\n", ProbeSend, ProbeCount)
	fmt.Fprintf(&b, "run %ds\n", RunFor)
	neg := func(o Oracle) bool {
		for _, n := range negate {
			if n.Host == o.Host && n.Group == o.Group {
				return true
			}
		}
		return false
	}
	if negate == nil {
		for _, o := range t.Oracles {
			fmt.Fprintf(&b, "expect %s received %s >= %d\n", o.Host, o.Group, o.Min)
		}
	} else {
		// Found-counterexample form: only the failed oracles appear, negated,
		// so the file passes exactly when the delivery bug reproduces.
		for _, o := range t.Oracles {
			if neg(o) {
				fmt.Fprintf(&b, "expect %s received %s < %d\n", o.Host, o.Group, o.Min)
			}
		}
	}
	return b.String(), nil
}

// RenderFound emits the schedule as a self-contained counterexample
// scenario whose expectations record the verdict: `expect violations >= 1`
// for invariant verdicts, the negated delivery oracles for delivery
// verdicts. The header comment names the violated contract and the seeds
// so a reader can reproduce the find without the search harness.
func RenderFound(s Schedule, v Verdict, searchSeed int64, trial int) (string, error) {
	var h strings.Builder
	h.WriteString("# Found by `pimbench -faultsearch` and minimized; do not edit by hand.\n")
	fmt.Fprintf(&h, "# violated: %s\n", v.Label())
	fmt.Fprintf(&h, "# detail: %s\n", v.Detail)
	fmt.Fprintf(&h, "# search seed %d, trial %d, faultseed %d\n", searchSeed, trial, s.Seed)
	fmt.Fprintf(&h, "# schedule: %s\n", s.String())
	h.WriteString("# The expectations below RECORD the bug: this scenario passes iff the\n")
	h.WriteString("# violation still reproduces, and fails once the bug is fixed — then the\n")
	h.WriteString("# expectations should be flipped to pin the fix.\n")
	if v.Kind == VerdictInvariant {
		body, err := s.render([]Oracle{}, h.String())
		if err != nil {
			return "", err
		}
		return body + "expect violations >= 1\n", nil
	}
	return s.render(v.FailedOracles, h.String())
}
