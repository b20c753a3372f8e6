// Package script implements the scenario scripting language of cmd/pimscript:
// small line-oriented text files that declare a topology, deploy a multicast
// protocol, schedule joins/leaves/sends/link failures, run the simulation,
// and assert on the outcome. Scripts double as executable protocol
// documentation (see the scenarios/ directory) and as an acceptance-test
// harness for protocol changes.
//
// Grammar (one statement per line, '#' comments):
//
//	topo random nodes=<n> degree=<f> [seed=<n>] [mindelay=<n>] [maxdelay=<n>]
//	topo file <path>
//	topo edges <a>-<b>[:<delay>] ...
//	unicast oracle|dv|ls
//	group <name> [rp <router>]          # rp doubles as the CBT core
//	faultseed <n>                       # seed of the loss/reorder streams (default 1)
//	protocol pim-sm [spt=immediate|never|threshold] [aggregate]
//	protocol pim-dm | dvmrp | cbt | mospf [prune=<dur>]
//	protocol ... [timers=fast]          # shrunk soft-state clocks (fault scenarios)
//	host <name> <router>
//	at <time> join <host> <group>
//	at <time> leave <host> <group>
//	at <time> send <host> <group> [count=<n>] [every=<dur>] [size=<n>]
//	at <time> linkdown <edge> | linkup <edge>
//	at <time> loss <edge>|all <rate> [control|data]   # Bernoulli loss; rate 0 clears
//	at <time> reorder <edge>|all <window> [control|data]  # bounded reordering; 0 clears
//	at <time> flap <edge> [down=<dur>] [up=<dur>] [cycles=<n>]
//	at <time> crash <router> | restart <router>
//	at <time> partition <edge> ... | heal
//	run <duration>
//	expect <host> received <group> <op> <n>      # op: >= <= == != > <
//	expect router <router> state <op> <n>
//	expect links-with-data <op> <n>
//	expect violations <op> <n>          # invariant-checker violations (checked runs)
//
// Routers are written r0, r1, ... (or bare indexes); durations use Go-like
// suffixes (150ms, 2s, 1m).
//
// A script that declares `expect violations` runs with the invariant checker
// attached regardless of RunConfig — the expectation is the scenario's
// recorded verdict. The fault-schedule search (internal/faultsearch) emits
// its minimized counterexamples in exactly this form: the scenario passes
// iff the violation still reproduces, so the corpus under scenarios/found/
// enforces every found bug forever.
//
// A scenario may additionally embed its golden digest after a line holding
// exactly `-- golden --` (txtar-style): `delivered`, `events`, and `stream`
// lines recording the delivery counts, per-kind telemetry event counts, and
// the FNV-64a hash of the canonical captured stream. `pimscript -update`
// regenerates the section; corpus discovery (Corpus, `pimscript -corpus`)
// re-runs every scenario under ref+fast × heap+wheel × shards∈{1,2} and
// fails on any digest drift. See DESIGN.md §15.
package script

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// GoldenMarker separates a scenario's script body from its embedded golden
// digest (txtar-style): everything before the marker line is the script,
// everything after is the recorded digest of the run's canonical telemetry
// stream and delivery counts. `pimscript -update` regenerates the section.
const GoldenMarker = "-- golden --"

// Script is a parsed scenario.
type Script struct {
	stmts []stmt
	// body is the raw script text up to (and excluding) the golden marker,
	// preserved byte-for-byte so -update round-trips.
	body string
	// golden holds the embedded digest lines (nil when the scenario has no
	// golden section yet).
	golden []string
}

// Body returns the raw script text before the golden marker, exactly as
// read, so regeneration preserves comments and formatting.
func (s *Script) Body() string { return s.body }

// Golden returns the embedded digest lines, or nil when the scenario has no
// golden section.
func (s *Script) Golden() []string { return s.golden }

type stmt struct {
	line int
	kind string
	args []string
	kv   map[string]string
}

func (st stmt) errf(format string, a ...interface{}) error {
	return fmt.Errorf("line %d: %s", st.line, fmt.Sprintf(format, a...))
}

// Parse reads a scenario from text. A line equal to GoldenMarker splits the
// file: statements before it, the recorded golden digest after it.
func Parse(text string) (*Script, error) {
	s := &Script{body: text}
	if body, rest, ok := cutGolden(text); ok {
		s.body = body
		s.golden = []string{} // a present-but-empty section is still a golden
		for _, ln := range strings.Split(rest, "\n") {
			if ln = strings.TrimSpace(ln); ln != "" {
				s.golden = append(s.golden, ln)
			}
		}
	}
	for i, raw := range strings.Split(s.body, "\n") {
		line := i + 1
		if idx := strings.IndexByte(raw, '#'); idx >= 0 {
			raw = raw[:idx]
		}
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		st := stmt{line: line, kind: fields[0], kv: map[string]string{}}
		for _, f := range fields[1:] {
			if k, v, ok := strings.Cut(f, "="); ok && k != "" && st.kind != "expect" {
				st.kv[k] = v
			} else {
				st.args = append(st.args, f)
			}
		}
		switch st.kind {
		case "topo", "unicast", "group", "protocol", "host", "at", "run", "expect", "faultseed":
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", line, st.kind)
		}
		s.stmts = append(s.stmts, st)
	}
	return s, nil
}

// cutGolden splits text at the first line that is exactly the golden marker;
// the marker line belongs to neither half.
func cutGolden(text string) (body, golden string, ok bool) {
	for off := 0; off < len(text); {
		end := strings.IndexByte(text[off:], '\n')
		line := text[off:]
		next := len(text)
		if end >= 0 {
			line = text[off : off+end]
			next = off + end + 1
		}
		if line == GoldenMarker {
			return text[:off], text[next:], true
		}
		off = next
	}
	return text, "", false
}

// ParseFile reads a scenario file.
func ParseFile(path string) (*Script, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(b))
}

// Result reports a script run.
type Result struct {
	// Failures lists failed expectations.
	Failures []string
	// Log carries informational lines (deployment summary, counters).
	Log []string
	// Delivered maps "<host>/<group>" to reception counts.
	Delivered map[string]int
	// Checker is the single invariant checker of a checked sequential run;
	// nil when unchecked, when the deployment is not covered (the mixed
	// sparse/dense interop form), or when a sharded run attached one checker
	// per lane — read Violations either way.
	Checker *telemetry.Checker
	// Violations aggregates invariant-checker findings across every lane,
	// sorted by time then router (nil on unchecked runs).
	Violations []telemetry.Violation
	// Events is the canonical captured telemetry stream of a Captured run:
	// per-shard lane buffers concatenated and stable-sorted by (At, Router),
	// identical for any shard count.
	Events []telemetry.Event
}

// OK reports whether every expectation held.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// ExpectsViolations reports whether the script asserts on invariant-checker
// violations (`expect violations ...`). Corpus runners use it to tell
// found-counterexample scenarios — which *record* a violation as their
// verdict — from ordinary scenarios, where any violation is a failure.
func (s *Script) ExpectsViolations() bool {
	for _, st := range s.stmts {
		if st.kind == "expect" && len(st.args) > 0 && st.args[0] == "violations" {
			return true
		}
	}
	return false
}

type hostRef struct {
	host   *igmp.Host
	router int
	// delaySum/delayN accumulate delivery latency per group for the
	// mean-delay expectation.
	delaySum map[addr.IP]netsim.Time
	delayN   map[addr.IP]int64
}

type runner struct {
	sim   *scenario.Sim
	graph *topology.Graph

	uniMode  scenario.UnicastMode
	groups   map[string]addr.IP
	groupRP  map[addr.IP][]int // group -> ordered RP/core router indexes
	hosts    map[string]*hostRef
	stateFn  func(router int) int
	deployed bool
	// dep is the uniform crash/restart surface; nil for the mixed
	// sparse/dense deployment, which has no whole-router lifecycle.
	dep scenario.Deployment
	// checked attaches the telemetry bus and online invariant checker to
	// the deployment (RunConfig.Checked); checker holds it after deploy.
	// failFast additionally arms the checker's first-violation halt. bus,
	// when non-nil, is an externally supplied event bus (RunConfig.Bus)
	// whose subscribers — samplers, probes — observe the deployment.
	checked  bool
	failFast bool
	bus      *telemetry.Bus
	// shards is the requested partition count (RunConfig.Shards).
	shards  int
	checker *telemetry.Checker
	// fastTimers records protocol ... timers=fast, so deployOpts can shrink
	// the IGMP clocks alongside the engine's.
	fastTimers bool
	// captured (RunConfig.Captured) records the deployment's event stream
	// on per-shard lanes; laneEvents[i] is appended only by shard i's
	// goroutine, so capture stays race-free under parallel execution.
	captured   bool
	lanes      []*telemetry.Bus
	laneEvents [][]telemetry.Event
	// inj is the lazily created fault injector (loss/reorder/flap/partition
	// verbs); faultSeed is the stream seed it is created with (the
	// `faultseed` statement; default 1).
	inj       *faults.Injector
	faultSeed int64

	res *Result
}

// injector returns the script's fault injector, installing it on first use.
// The seed defaults to 1 — script runs are reproducible documents — and the
// `faultseed` statement overrides it, so emitted search counterexamples can
// round-trip the loss/reorder realization that triggered them.
func (r *runner) injector() *faults.Injector {
	if r.inj == nil {
		r.inj = faults.New(r.sim.Net, r.faultSeed)
	}
	return r.inj
}

// RunConfig selects the script execution mode; the zero value is the plain
// sequential run with no observation attached.
type RunConfig struct {
	// Shards is the partition count the simulation executes under (0 or 1
	// = sequential). Runs whose observers share one bus, and protocols
	// that cannot shard, ignore it (see RunWith).
	Shards int
	// Checked attaches a telemetry bus and the online §3.8 invariant
	// checker (forced on when the script declares `expect violations`).
	Checked bool
	// FailFast additionally arms the checker's first-violation halt: the
	// simulation freezes at the violation instant and the rest of the
	// scripted run is skipped. Implies Checked.
	FailFast bool
	// Bus, when non-nil, is an externally supplied event bus whose
	// subscribers (samplers, convergence probes) observe the deployment;
	// subscribe them before calling RunWith. Pins the run to one shard.
	Bus *telemetry.Bus
	// Captured records the event stream on per-shard telemetry lanes and
	// returns the canonical merged stream in Result.Events: lane buffers
	// concatenated and stable-sorted by (At, Router), preserving each
	// router's publication order while normalizing cross-router
	// same-instant interleaving — identical for any shard count. This is
	// the sharded observation path and every equivalence gate's witness.
	Captured bool
}

// RunWith is the single execution entrypoint: it runs the script in the
// mode cfg selects and folds every observation — checker, violations, the
// captured canonical stream — into the Result. The zero RunConfig is the
// plain run.
//
// Sharding: unchecked and captured runs execute under cfg.Shards; a
// captured checked run attaches one checker per
// lane (read Result.Violations). Runs with an external Bus, checked
// uncaptured runs, and FailFast runs pin to sequential execution — their
// consumers share one bus, which parallel shards would race on.
func (s *Script) RunWith(cfg RunConfig) (*Result, error) {
	// A recorded-verdict scenario needs its checker regardless of how the
	// caller invoked it: the violation count is part of the outcome.
	if s.ExpectsViolations() {
		cfg.Checked = true
	}
	if cfg.FailFast {
		cfg.Checked = true
	}
	r := &runner{
		shards:    cfg.Shards,
		checked:   cfg.Checked,
		failFast:  cfg.FailFast,
		bus:       cfg.Bus,
		captured:  cfg.Captured,
		faultSeed: 1,
		groups:    map[string]addr.IP{},
		groupRP:   map[addr.IP][]int{},
		hosts:     map[string]*hostRef{},
		res:       &Result{Delivered: map[string]int{}},
	}
	// Pass 1: structure (topology, unicast mode, groups, hosts) so the
	// script order of declarations versus the protocol statement does not
	// matter.
	for _, st := range s.stmts {
		var err error
		switch st.kind {
		case "topo":
			err = r.doTopo(st)
		case "unicast":
			err = r.doUnicast(st)
		case "group":
			err = r.doGroup(st)
		case "host":
			err = r.doHost(st)
		case "faultseed":
			err = r.doFaultSeed(st)
		}
		if err != nil {
			return nil, err
		}
	}
	// Pass 2: deployment, timed actions, runs, and expectations in order.
	for _, st := range s.stmts {
		var err error
		switch st.kind {
		case "protocol":
			err = r.deploy(st)
		case "at":
			err = r.doAt(st)
		case "run":
			err = r.doRun(st)
		case "expect":
			err = r.doExpect(st)
		}
		if err != nil {
			return nil, err
		}
	}
	for name, h := range r.hosts {
		for gname, g := range r.groups {
			r.res.Delivered[name+"/"+gname] = h.host.Received[g]
		}
	}
	// Canonical captured stream: concatenate the per-shard lane buffers and
	// stable-sort by (At, Router). Within one router all events come from
	// one lane in publication order, which the stable sort preserves.
	if r.captured {
		for _, buf := range r.laneEvents {
			r.res.Events = append(r.res.Events, buf...)
		}
		slices.SortStableFunc(r.res.Events, func(x, y telemetry.Event) int {
			if x.At != y.At {
				return cmp.Compare(x.At, y.At)
			}
			return cmp.Compare(x.Router, y.Router)
		})
	}
	r.res.Checker = r.checker
	if r.checked {
		r.res.Violations = r.violations()
	}
	return r.res, nil
}

// violations aggregates the run's invariant-checker findings: across every
// lane of a uniform deployment, or from the single externally attached
// checker otherwise. Nil when no checker observed the run.
func (r *runner) violations() []telemetry.Violation {
	if r.dep != nil {
		return r.dep.Violations()
	}
	if r.checker != nil {
		return r.checker.Violations()
	}
	return nil
}

func (r *runner) doTopo(st stmt) error {
	if r.graph != nil {
		return st.errf("duplicate topo")
	}
	if len(st.args) == 0 {
		return st.errf("topo needs a form: random | file <path> | edges ...")
	}
	switch st.args[0] {
	case "random":
		nodes, err := st.intKV("nodes", 0)
		if err != nil || nodes <= 0 {
			return st.errf("topo random needs nodes=<n>")
		}
		if nodes > topology.MaxEdgeListNode {
			return st.errf("topo random: nodes=%d above the limit %d", nodes, topology.MaxEdgeListNode)
		}
		degree, err := st.floatKV("degree", 4)
		if err != nil {
			return err
		}
		seed, err := st.intKV("seed", 1)
		if err != nil {
			return err
		}
		minD, err := st.intKV("mindelay", 1)
		if err != nil {
			return err
		}
		maxD, err := st.intKV("maxdelay", minD)
		if err != nil {
			return err
		}
		r.graph = topology.Random(topology.GenConfig{
			Nodes: nodes, Degree: degree,
			MinDelay: int64(minD), MaxDelay: int64(maxD),
		}, rand.New(rand.NewSource(int64(seed))))
	case "file":
		if len(st.args) != 2 {
			return st.errf("topo file needs a path")
		}
		f, err := os.Open(st.args[1])
		if err != nil {
			return st.errf("%v", err)
		}
		defer f.Close()
		g, err := topology.ParseEdgeList(f)
		if err != nil {
			return st.errf("%v", err)
		}
		r.graph = g
	case "edges":
		type edge struct {
			a, b int
			d    int64
		}
		var edges []edge
		maxNode := -1
		for _, spec := range st.args[1:] {
			delay := int64(1)
			epart := spec
			if ep, dp, ok := strings.Cut(spec, ":"); ok {
				epart = ep
				d, err := strconv.ParseInt(dp, 10, 64)
				if err != nil || d <= 0 {
					return st.errf("bad delay in %q", spec)
				}
				delay = d
			}
			as, bs, ok := strings.Cut(epart, "-")
			if !ok {
				return st.errf("bad edge %q (want a-b[:delay])", spec)
			}
			a, errA := strconv.Atoi(as)
			b, errB := strconv.Atoi(bs)
			if errA != nil || errB != nil || a < 0 || b < 0 || a == b {
				return st.errf("bad edge %q", spec)
			}
			if a > topology.MaxEdgeListNode || b > topology.MaxEdgeListNode {
				return st.errf("edge %q: node above the limit %d", spec, topology.MaxEdgeListNode)
			}
			edges = append(edges, edge{a, b, delay})
			if a > maxNode {
				maxNode = a
			}
			if b > maxNode {
				maxNode = b
			}
		}
		if len(edges) == 0 {
			return st.errf("topo edges needs at least one edge")
		}
		g := topology.New(maxNode + 1)
		for _, e := range edges {
			g.AddEdge(e.a, e.b, e.d)
		}
		r.graph = g
	default:
		return st.errf("unknown topo form %q", st.args[0])
	}
	r.sim = scenario.Build(r.graph)
	return nil
}

func (r *runner) doFaultSeed(st stmt) error {
	if len(st.args) != 1 {
		return st.errf("faultseed syntax: faultseed <n>")
	}
	n, err := strconv.ParseInt(st.args[0], 10, 64)
	if err != nil {
		return st.errf("bad faultseed %q", st.args[0])
	}
	r.faultSeed = n
	return nil
}

func (r *runner) doUnicast(st stmt) error {
	if len(st.args) != 1 {
		return st.errf("unicast needs oracle|dv|ls")
	}
	switch st.args[0] {
	case "oracle":
		r.uniMode = scenario.UseOracle
	case "dv":
		r.uniMode = scenario.UseDV
	case "ls":
		r.uniMode = scenario.UseLS
	default:
		return st.errf("unknown unicast mode %q", st.args[0])
	}
	return nil
}

func (r *runner) doGroup(st stmt) error {
	if len(st.args) < 1 {
		return st.errf("group needs a name")
	}
	name := st.args[0]
	if _, dup := r.groups[name]; dup {
		return st.errf("duplicate group %q", name)
	}
	g := addr.GroupForIndex(len(r.groups))
	r.groups[name] = g
	if len(st.args) >= 3 && st.args[1] == "rp" {
		for _, arg := range st.args[2:] {
			idx, err := r.routerIndex(st, arg)
			if err != nil {
				return err
			}
			r.groupRP[g] = append(r.groupRP[g], idx)
		}
	} else if len(st.args) != 1 {
		return st.errf("group syntax: group <name> [rp <router>...]")
	}
	return nil
}

func (r *runner) doHost(st stmt) error {
	if r.sim == nil {
		return st.errf("host before topo")
	}
	if len(st.args) != 2 {
		return st.errf("host syntax: host <name> <router>")
	}
	name := st.args[0]
	if _, dup := r.hosts[name]; dup {
		return st.errf("duplicate host %q", name)
	}
	idx, err := r.routerIndex(st, st.args[1])
	if err != nil {
		return err
	}
	ref := &hostRef{
		host: r.sim.AddHost(idx), router: idx,
		delaySum: map[addr.IP]netsim.Time{}, delayN: map[addr.IP]int64{},
	}
	// Latency is read off the host's own scheduler clock: under sharded
	// execution the callback fires on the host's shard, where the root
	// clock may still sit at the window base.
	hostNode := ref.host.Node
	ref.host.OnData = func(g addr.IP, pkt *packet.Packet) {
		if d, ok := scenario.Latency(hostNode.Sched().Now(), pkt); ok {
			ref.delaySum[g] += d
			ref.delayN[g]++
		}
	}
	r.hosts[name] = ref
	return nil
}

// Shrunk soft-state clocks selected by `protocol ... timers=fast` — the
// same grade the recovery experiment uses (internal/experiments).
const (
	fastRefresh = 20 * netsim.Second
	fastHello   = 10 * netsim.Second
	fastPrune   = 60 * netsim.Second
)

// deployOpts returns the options shared by every protocol statement.
func (r *runner) deployOpts() []scenario.DeployOption {
	var opts []scenario.DeployOption
	if r.fastTimers {
		opts = append(opts, scenario.WithIGMPTimers(fastHello, 3*fastHello))
	}
	if r.bus != nil {
		opts = append(opts, scenario.WithTelemetry(r.bus))
	}
	if r.lanes != nil {
		opts = append(opts, scenario.WithTelemetry(r.lanes[0]))
		if len(r.lanes) > 1 {
			opts = append(opts, scenario.WithShardTelemetry(r.lanes))
		}
	}
	if r.failFast {
		opts = append(opts, scenario.WithFailFast())
	} else if r.checked {
		opts = append(opts, scenario.WithInvariantChecker())
	}
	return opts
}

// install records a uniform deployment as the script's fault/state surface.
func (r *runner) install(dep scenario.Deployment) {
	r.dep = dep
	r.stateFn = dep.StateAt
	r.checker = dep.Checker()
}

func (r *runner) deploy(st stmt) error {
	if r.sim == nil {
		return st.errf("protocol before topo")
	}
	if r.deployed {
		return st.errf("duplicate protocol statement")
	}
	if len(st.args) < 1 {
		return st.errf("protocol needs a name")
	}
	// Shard before the unicast substrate schedules its first event.
	// Externally instrumented runs, checked uncaptured runs, and fail-fast
	// runs stay sequential (their consumers share one bus); a captured
	// checked run shards fine — the deployment attaches one checker per
	// lane, and the §3.8 invariants are per-router, so each lane checker
	// sees everything it needs. MOSPF pins to one shard (shared link-state
	// Domain), as does the mixed sparse/dense interop form.
	if r.bus == nil && (!r.checked || r.captured) && !r.failFast &&
		st.args[0] != "mospf" && st.kv["dense"] == "" {
		r.sim.AutoShardN(r.shards)
	}
	if r.captured {
		nlanes := r.sim.Net.ShardCount()
		r.laneEvents = make([][]telemetry.Event, nlanes)
		for i := 0; i < nlanes; i++ {
			i := i
			lane := telemetry.NewBus()
			lane.Subscribe(func(ev telemetry.Event) {
				r.laneEvents[i] = append(r.laneEvents[i], ev)
			})
			r.lanes = append(r.lanes, lane)
		}
	}
	r.sim.FinishUnicast(r.uniMode)
	r.sim.Run(r.sim.ConvergenceTime())

	rpMap := map[addr.IP][]addr.IP{}
	coreMap := map[addr.IP]addr.IP{}
	for _, g := range r.groups {
		if idxs, ok := r.groupRP[g]; ok && len(idxs) > 0 {
			for _, idx := range idxs {
				rpMap[g] = append(rpMap[g], r.sim.RouterAddr(idx))
			}
			coreMap[g] = r.sim.RouterAddr(idxs[0]) // CBT uses one core
		}
	}
	// timers=fast shrinks every soft-state clock to the recovery-experiment
	// grade (join/prune and LSA refresh 20 s, hellos/queries 10 s, prune
	// state 60 s, IGMP query 10 s / hold 30 s), so crash recovery and
	// membership re-learning complete within a few-minute scripted run.
	// Fault scenarios — hand-written and search-emitted alike — depend on
	// it: with the default clocks a crashed router's state can outlive the
	// script.
	fast := false
	switch st.kv["timers"] {
	case "":
	case "fast":
		fast = true
	default:
		return st.errf("unknown timers=%q (want fast)", st.kv["timers"])
	}
	r.fastTimers = fast
	prune := 120 * netsim.Second
	if fast {
		prune = fastPrune
	}
	if v, ok := st.kv["prune"]; ok {
		d, err := parseDuration(v)
		if err != nil {
			return st.errf("bad prune=%q", v)
		}
		prune = d
	}
	name := st.args[0]
	switch name {
	case "pim-sm":
		cfg := core.Config{RPMapping: rpMap}
		if fast {
			cfg.JoinPruneInterval = fastRefresh
			cfg.QueryInterval = fastHello
			cfg.RPReachInterval = fastRefresh
		}
		switch st.kv["spt"] {
		case "", "immediate":
			cfg.SPTPolicy = core.SwitchImmediate
		case "never":
			cfg.SPTPolicy = core.SwitchNever
		case "threshold":
			cfg.SPTPolicy = core.SwitchThreshold
		default:
			return st.errf("unknown spt=%q", st.kv["spt"])
		}
		for _, a := range st.args[1:] {
			if a == "aggregate" {
				cfg.AggregateSources = true
			}
		}
		if v, ok := st.kv["dense"]; ok {
			// Mixed sparse/dense internet (§4): dense=3,4 marks dense-mode
			// routers; adjacent sparse routers become borders.
			denseSet := map[int]bool{}
			for _, part := range strings.Split(v, ",") {
				idx, err := r.routerIndex(st, part)
				if err != nil {
					return err
				}
				denseSet[idx] = true
			}
			r.stateFn = r.sim.DeployInterop(cfg, pimdm.Config{PruneHoldTime: prune}, denseSet).StateAt
			break
		}
		r.install(r.sim.Deploy(scenario.SparseMode,
			append(r.deployOpts(), scenario.WithCoreConfig(cfg))...))
	case "pim-dm":
		dcfg := pimdm.Config{PruneHoldTime: prune}
		if fast {
			dcfg.QueryInterval = fastHello
		}
		r.install(r.sim.Deploy(scenario.DenseMode, append(r.deployOpts(),
			scenario.WithDenseConfig(dcfg))...))
	case "dvmrp":
		vcfg := dvmrp.Config{PruneLifetime: prune}
		if fast {
			vcfg.ProbeInterval = fastHello
		}
		r.install(r.sim.Deploy(scenario.DVMRPMode, append(r.deployOpts(),
			scenario.WithDVMRPConfig(vcfg))...))
	case "cbt":
		ccfg := cbt.Config{CoreMapping: coreMap}
		if fast {
			ccfg.EchoInterval = fastHello
		}
		r.install(r.sim.Deploy(scenario.CBTMode, append(r.deployOpts(),
			scenario.WithCBTConfig(ccfg))...))
	case "mospf":
		opts := r.deployOpts()
		if fast {
			opts = append(opts, scenario.WithMOSPFRefresh(fastRefresh))
		}
		r.install(r.sim.Deploy(scenario.MOSPFMode, opts...))
	default:
		return st.errf("unknown protocol %q", name)
	}
	r.deployed = true
	// Neighbor discovery before scripted events begin.
	r.sim.Run(2 * netsim.Second)
	r.res.Log = append(r.res.Log,
		fmt.Sprintf("deployed %s on %d routers (%d links)", name, r.graph.N(), r.graph.M()))
	return nil
}

// doAt schedules one timed action. Times are absolute script time measured
// from deployment.
func (r *runner) doAt(st stmt) error {
	if !r.deployed {
		return st.errf("at before protocol")
	}
	if len(st.args) < 2 {
		return st.errf("at syntax: at <time> <action> ...")
	}
	when, err := parseDuration(st.args[0])
	if err != nil {
		return st.errf("bad time %q", st.args[0])
	}
	action := st.args[1]
	rest := st.args[2:]
	// Globally scoped verbs (link flaps, loss models, crash/restart) run as
	// root-scheduler actions: under sharded execution they fire at epoch
	// barriers with every shard quiesced. Verbs that touch a single host
	// (join/leave/send) run on that host's own scheduler instead, so the
	// membership change or packet send originates inside its shard exactly
	// as it would sequentially.
	schedule := func(fn func()) {
		r.sim.Net.Sched.At(r.sim.Net.Sched.Now()+when, fn)
	}
	scheduleOn := func(nd *netsim.Node, fn func()) {
		sched := nd.Sched()
		sched.At(sched.Now()+when, fn)
	}
	switch action {
	case "join", "leave":
		if len(rest) != 2 {
			return st.errf("%s syntax: at <t> %s <host> <group>", action, action)
		}
		h, g, err := r.hostGroup(st, rest[0], rest[1])
		if err != nil {
			return err
		}
		if action == "join" {
			rps := []addr.IP{}
			for _, idx := range r.groupRP[g] {
				rps = append(rps, r.sim.RouterAddr(idx))
			}
			scheduleOn(h.host.Node, func() { h.host.Join(g, rps...) })
		} else {
			scheduleOn(h.host.Node, func() { h.host.Leave(g) })
		}
	case "send":
		if len(rest) != 2 {
			return st.errf("send syntax: at <t> send <host> <group> [count= every= size=]")
		}
		h, g, err := r.hostGroup(st, rest[0], rest[1])
		if err != nil {
			return err
		}
		count, err := st.intKV("count", 1)
		if err != nil {
			return err
		}
		size, err := st.intKV("size", 128)
		if err != nil {
			return err
		}
		every := netsim.Second
		if v, ok := st.kv["every"]; ok {
			every, err = parseDuration(v)
			if err != nil {
				return st.errf("bad every=%q", v)
			}
		}
		hostSched := h.host.Node.Sched()
		scheduleOn(h.host.Node, func() {
			sent := 0
			var pump func()
			pump = func() {
				scenario.SendData(h.host, g, size)
				sent++
				if sent < count {
					hostSched.After(every, pump)
				}
			}
			pump()
		})
	case "linkdown", "linkup":
		if len(rest) != 1 {
			return st.errf("%s syntax: at <t> %s <edge>", action, action)
		}
		link, err := r.edgeLink(st, rest[0])
		if err != nil {
			return err
		}
		up := action == "linkup"
		schedule(func() { r.sim.Net.SetLinkUp(link, up) })
	case "loss":
		if len(rest) != 2 && len(rest) != 3 {
			return st.errf("loss syntax: at <t> loss <edge>|all <rate> [control|data]")
		}
		var link *netsim.Link
		if rest[0] != "all" {
			var err error
			if link, err = r.edgeLink(st, rest[0]); err != nil {
				return err
			}
		}
		rate, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return st.errf("bad loss rate %q (want 0..1)", rest[1])
		}
		class := faults.All
		if len(rest) == 3 {
			switch rest[2] {
			case "control":
				class = faults.ControlOnly
			case "data":
				class = faults.DataOnly
			default:
				return st.errf("bad loss class %q (want control|data)", rest[2])
			}
		}
		in := r.injector()
		schedule(func() { in.SetBernoulli(link, rate, class) })
	case "reorder":
		if len(rest) != 2 && len(rest) != 3 {
			return st.errf("reorder syntax: at <t> reorder <edge>|all <window> [control|data]")
		}
		var link *netsim.Link
		if rest[0] != "all" {
			var err error
			if link, err = r.edgeLink(st, rest[0]); err != nil {
				return err
			}
		}
		window, err := parseDuration(rest[1])
		if err != nil {
			return st.errf("bad reorder window %q", rest[1])
		}
		class := faults.All
		if len(rest) == 3 {
			switch rest[2] {
			case "control":
				class = faults.ControlOnly
			case "data":
				class = faults.DataOnly
			default:
				return st.errf("bad reorder class %q (want control|data)", rest[2])
			}
		}
		in := r.injector()
		schedule(func() { in.SetReorder(link, window, class) })
	case "flap":
		if len(rest) != 1 {
			return st.errf("flap syntax: at <t> flap <edge> [down=<dur>] [up=<dur>] [cycles=<n>]")
		}
		link, err := r.edgeLink(st, rest[0])
		if err != nil {
			return err
		}
		down, up := 5*netsim.Second, 5*netsim.Second
		if v, ok := st.kv["down"]; ok {
			if down, err = parseDuration(v); err != nil {
				return st.errf("bad down=%q", v)
			}
		}
		if v, ok := st.kv["up"]; ok {
			if up, err = parseDuration(v); err != nil {
				return st.errf("bad up=%q", v)
			}
		}
		cycles, err := st.intKV("cycles", 1)
		if err != nil {
			return err
		}
		in := r.injector()
		schedule(func() { in.Flap(link, 0, down, up, cycles) })
	case "crash", "restart":
		if len(rest) != 1 {
			return st.errf("%s syntax: at <t> %s <router>", action, action)
		}
		idx, err := r.routerIndex(st, rest[0])
		if err != nil {
			return err
		}
		if r.dep == nil {
			return st.errf("%s is not supported for this deployment", action)
		}
		if action == "crash" {
			schedule(func() { r.dep.Crash(idx) })
		} else {
			schedule(func() { r.dep.Restart(idx) })
		}
	case "partition":
		if len(rest) == 0 {
			return st.errf("partition syntax: at <t> partition <edge> ...")
		}
		var links []*netsim.Link
		for _, spec := range rest {
			link, err := r.edgeLink(st, spec)
			if err != nil {
				return err
			}
			links = append(links, link)
		}
		in := r.injector()
		schedule(func() { in.Partition(links...) })
	case "heal":
		if len(rest) != 0 {
			return st.errf("heal syntax: at <t> heal")
		}
		in := r.injector()
		schedule(func() { in.Heal() })
	default:
		return st.errf("unknown action %q", action)
	}
	return nil
}

func (r *runner) doRun(st stmt) error {
	if !r.deployed {
		return st.errf("run before protocol")
	}
	if len(st.args) != 1 {
		return st.errf("run syntax: run <duration>")
	}
	d, err := parseDuration(st.args[0])
	if err != nil {
		return st.errf("bad duration %q", st.args[0])
	}
	r.sim.Run(d)
	return nil
}

func (r *runner) doExpect(st stmt) error {
	if !r.deployed {
		return st.errf("expect before protocol")
	}
	fail := func(format string, a ...interface{}) {
		r.res.Failures = append(r.res.Failures,
			fmt.Sprintf("line %d: %s", st.line, fmt.Sprintf(format, a...)))
	}
	a := st.args
	switch {
	case len(a) == 5 && a[1] == "received":
		h, g, err := r.hostGroup(st, a[0], a[2])
		if err != nil {
			return err
		}
		want, op, err := opValue(st, a[3], a[4])
		if err != nil {
			return err
		}
		got := h.host.Received[g]
		if !op(got, want) {
			fail("%s received %s = %d, want %s %d", a[0], a[2], got, a[3], want)
		}
	case len(a) == 5 && a[0] == "router" && a[2] == "state":
		idx, err := r.routerIndex(st, a[1])
		if err != nil {
			return err
		}
		want, op, err := opValue(st, a[3], a[4])
		if err != nil {
			return err
		}
		got := r.stateFn(idx)
		if !op(got, want) {
			fail("router %s state = %d, want %s %d", a[1], got, a[3], want)
		}
	case len(a) == 5 && a[1] == "mean-delay":
		h, g, err := r.hostGroup(st, a[0], a[2])
		if err != nil {
			return err
		}
		wantD, err := parseDuration(a[4])
		if err != nil {
			return st.errf("bad duration %q", a[4])
		}
		if h.delayN[g] == 0 {
			fail("%s mean-delay %s: nothing delivered", a[0], a[2])
			break
		}
		got := h.delaySum[g] / netsim.Time(h.delayN[g])
		ok := false
		switch a[3] {
		case "<=":
			ok = got <= wantD
		case ">=":
			ok = got >= wantD
		case "<":
			ok = got < wantD
		case ">":
			ok = got > wantD
		default:
			return st.errf("bad operator %q for mean-delay", a[3])
		}
		if !ok {
			fail("%s mean-delay %s = %v, want %s %v", a[0], a[2], got, a[3], wantD)
		}
	case len(a) == 3 && a[0] == "violations":
		if r.dep == nil && r.checker == nil {
			return st.errf("expect violations requires the invariant checker (checked run, uniform deployment)")
		}
		want, op, err := opValue(st, a[1], a[2])
		if err != nil {
			return err
		}
		vs := r.violations()
		got := len(vs)
		if !op(got, want) {
			detail := ""
			if got > 0 {
				detail = " (first: " + vs[0].String() + ")"
			}
			fail("violations = %d, want %s %d%s", got, a[1], want, detail)
		}
	case len(a) == 3 && a[0] == "links-with-data":
		want, op, err := opValue(st, a[1], a[2])
		if err != nil {
			return err
		}
		got := 0
		for _, l := range r.sim.EdgeLinks {
			if r.sim.Net.Stats.PerLink[l.ID].DataPackets > 0 {
				got++
			}
		}
		if !op(got, want) {
			fail("links-with-data = %d, want %s %d", got, a[1], want)
		}
	default:
		return st.errf("unknown expect form %v", a)
	}
	return nil
}

// --- helpers ---

func (r *runner) routerIndex(st stmt, s string) (int, error) {
	s = strings.TrimPrefix(s, "r")
	idx, err := strconv.Atoi(s)
	if err != nil || r.graph == nil || idx < 0 || idx >= r.graph.N() {
		return 0, st.errf("bad router %q", s)
	}
	return idx, nil
}

// edgeLink resolves a backbone edge index to its link.
func (r *runner) edgeLink(st stmt, s string) (*netsim.Link, error) {
	edge, err := strconv.Atoi(s)
	if err != nil || edge < 0 || edge >= len(r.sim.EdgeLinks) {
		return nil, st.errf("bad edge %q", s)
	}
	return r.sim.EdgeLinks[edge], nil
}

func (r *runner) hostGroup(st stmt, hname, gname string) (*hostRef, addr.IP, error) {
	h, ok := r.hosts[hname]
	if !ok {
		return nil, 0, st.errf("unknown host %q", hname)
	}
	g, ok := r.groups[gname]
	if !ok {
		return nil, 0, st.errf("unknown group %q", gname)
	}
	return h, g, nil
}

func (st stmt) intKV(key string, def int) (int, error) {
	v, ok := st.kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, st.errf("bad %s=%q", key, v)
	}
	return n, nil
}

func (st stmt) floatKV(key string, def float64) (float64, error) {
	v, ok := st.kv[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, st.errf("bad %s=%q", key, v)
	}
	return f, nil
}

// parseDuration accepts 150ms / 2s / 3m / bare-seconds forms.
func parseDuration(s string) (netsim.Time, error) {
	mult := netsim.Second
	switch {
	case strings.HasSuffix(s, "ms"):
		mult = netsim.Millisecond
		s = strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		s = strings.TrimSuffix(s, "s")
	case strings.HasSuffix(s, "m"):
		mult = 60 * netsim.Second
		s = strings.TrimSuffix(s, "m")
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return netsim.Time(f * float64(mult)), nil
}

func opValue(st stmt, opStr, valStr string) (int, func(got, want int) bool, error) {
	want, err := strconv.Atoi(valStr)
	if err != nil {
		return 0, nil, st.errf("bad value %q", valStr)
	}
	var op func(got, want int) bool
	switch opStr {
	case ">=":
		op = func(g, w int) bool { return g >= w }
	case "<=":
		op = func(g, w int) bool { return g <= w }
	case "==":
		op = func(g, w int) bool { return g == w }
	case "!=":
		op = func(g, w int) bool { return g != w }
	case ">":
		op = func(g, w int) bool { return g > w }
	case "<":
		op = func(g, w int) bool { return g < w }
	default:
		return 0, nil, st.errf("bad operator %q", opStr)
	}
	return want, op, nil
}
