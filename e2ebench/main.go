// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload of whole multicast simulations, one at a time in this
// process, on inputs generated from the seed, and prints the measured
// metrics as one JSON object on the last line of standard output:
//
//	e2ebench --workload sparse-sm --seed 1 --seconds 20 --trace 0
//
// The seed yields `draws` independent input sets (topology, membership,
// senders, link flaps). With --trace 0 the benchmark runs units (set-up plus
// simulated span for every protocol) over the draws in turn until --seconds
// have passed, each draw at least once and the first draw twice, so every
// run checks a repeat against its first unit. It reports every end-to-end
// metric as the mean over draws of the median over that draw's units,
// timings scaled to a reference host speed by probes around each unit. With
// --trace 1 it runs the first draw once untraced and once traced (CPU
// profile, telemetry bus with the invariant checker, delivery trace
// counter) and reports the per-layer metrics, writing the table and the
// benchmark-side spans under .bench_build/trace/. It exits non-zero when
// the outcome check fails: repeated, traced and sharded runs of one input
// must simulate identically.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// draws is the number of independent input sets one run averages over, so
// a run's figures do not hinge on one topology and placement.
const draws = 2

// unit is one execution of every protocol pass of a workload.
type unit struct {
	passes []*pass
	hash   uint64
	// Set by probedUnit: wall is its host time including the host-speed
	// probes taken right before and after it (see probe.go), and probes
	// holds every kernel time of those probes.
	wall   time.Duration
	probes []time.Duration
}

func runUnit(s *spec, in *inputs, shards int, traced bool, tr *tracer) *unit {
	u := &unit{}
	for _, pr := range s.protocols {
		// Each pass starts from a collected heap, so it does not pay for
		// the previous pass's garbage. This precedes its set-up and is in
		// no measured figure.
		runtime.GC()
		u.passes = append(u.passes, runPass(s, in, pr, shards, traced, tr))
	}
	u.hash = outcomeHash(u.passes)
	return u
}

// probedUnit runs an untraced, unsharded unit between two host-speed
// probes; wall includes the probes.
func probedUnit(s *spec, in *inputs) *unit {
	st := time.Now()
	before := probe()
	u := runUnit(s, in, 1, false, nil)
	u.probes = append(before, probe()...)
	u.wall = time.Since(st)
	return u
}

func (u *unit) sum(f func(*pass) float64) float64 {
	var t float64
	for _, p := range u.passes {
		t += f(p)
	}
	return t
}

func (u *unit) setup() float64 { return u.sum(func(p *pass) float64 { return p.setup().Seconds() }) }
func (u *unit) run() float64   { return u.sum(func(p *pass) float64 { return p.run.Seconds() }) }

func (u *unit) peakLive() uint64 {
	var m uint64
	for _, p := range u.passes {
		m = max(m, p.peakLive)
	}
	return m
}

func (u *unit) delivered() (ok, expected int64) {
	for _, p := range u.passes {
		ok += p.deliv.ok
		expected += p.deliv.expected
	}
	return ok, expected
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the user-facing metrics from units grouped by draw:
// timings and heap as the mean over draws of each draw's median, delivery
// pooled over the draws. Timings are scaled to the reference host speed by
// the median of all the run's probe times, which a few slow ones cannot move.
func endToEnd(byDraw [][]*unit) map[string]metric {
	scale := speedScale(probeMedian(byDraw))
	mean := func(f func(*unit) float64) float64 {
		var t float64
		for _, us := range byDraw {
			vs := make([]float64, len(us))
			for i, u := range us {
				vs[i] = f(u)
			}
			t += median(vs)
		}
		return t / float64(len(byDraw))
	}
	ok, exp := delivered(byDraw)
	return map[string]metric{
		"setup_s":        {scale * mean((*unit).setup), "s"},
		"run_s":          {scale * mean((*unit).run), "s"},
		"peak_heap_mb":   {mean(func(u *unit) float64 { return float64(u.peakLive()) / 1e6 }), "MB"},
		"delivery_ratio": {ratio(float64(ok), float64(exp)), "fraction"},
	}
}

// probeMedian returns the median of every probe time taken around the units.
func probeMedian(byDraw [][]*unit) time.Duration {
	var ps []time.Duration
	for _, us := range byDraw {
		for _, u := range us {
			ps = append(ps, u.probes...)
		}
	}
	return durMedian(ps)
}

func durMedian(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// delivered sums delivery over the first unit of every draw.
func delivered(byDraw [][]*unit) (ok, expected int64) {
	for _, us := range byDraw {
		o, e := us[0].delivered()
		ok, expected = ok+o, expected+e
	}
	return ok, expected
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement budget per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload one of", workloadNames(), "and --trace 0|1")
		return 2
	}
	rng := rand.New(rand.NewSource(*seed))
	ins := make([]*inputs, draws)
	for k := range ins {
		ins[k] = makeInputs(s, rng.Int63())
	}
	start := time.Now()

	var problems []string
	agree := func(what string, a, b *unit) {
		if a.hash != b.hash {
			problems = append(problems, fmt.Sprintf("%s: outcome %016x != %016x", what, a.hash, b.hash))
		}
	}
	var res result
	var byDraw [][]*unit
	if *trace == 0 {
		byDraw = make([][]*unit, draws)
		budget := time.Duration(*seconds * float64(time.Second))
		for i := 0; ; i++ {
			k := i % draws
			u := probedUnit(s, ins[k])
			if len(byDraw[k]) > 0 {
				agree(fmt.Sprintf("draw %d repeat", k), byDraw[k][0], u)
			}
			byDraw[k] = append(byDraw[k], u)
			fmt.Fprintf(os.Stderr, "unit %d (draw %d): setup %.3fs run %.3fs peak heap %.1fMB probes %v\n",
				i+1, k, u.setup(), u.run(), float64(u.peakLive())/1e6, u.probes)
			if i+1 > draws && time.Since(start)+u.wall > budget {
				break
			}
		}
		res.Metrics = endToEnd(byDraw)
	} else {
		untraced := probedUnit(s, ins[0])
		byDraw = [][]*unit{{untraced}}
		// The sharded core must simulate exactly what one shard does.
		var sharded *unit
		if s.shardCheck {
			sharded = runUnit(s, ins[0], checkShards, false, nil)
			agree(fmt.Sprintf("%d shards vs 1 shard", checkShards), untraced, sharded)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: cpu profile:", err)
			return 1
		}
		tr := newTracer()
		traced := runUnit(s, ins[0], 1, true, tr)
		pprof.StopCPUProfile()
		agree("traced vs untraced", untraced, traced)
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		res.Metrics = perLayer(untraced, traced, sharded, samples)
		if err := writeTrace(s.name, *seed, res.Metrics, tr); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
	}

	ok, exp := delivered(byDraw)
	res.Attempted, res.Failed = exp, exp-ok
	res.Correct = len(problems) == 0 && exp > 0
	printTable(os.Stdout, s.name, byDraw, res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "e2ebench: outcome check failed:", p)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printTable writes a human-readable summary: per-pass delivery of each
// draw's first unit and the reported metrics, sorted by name.
func printTable(w *os.File, name string, byDraw [][]*unit, ms map[string]metric) {
	for k, us := range byDraw {
		for _, p := range us[0].passes {
			fmt.Fprintf(w, "%-12s draw %d %-7s setup %.3fs run %.3fs delivered %d/%d dup %d events %d\n",
				name, k, p.proto, p.setup().Seconds(), p.run.Seconds(), p.deliv.ok, p.deliv.expected, p.deliv.dup, p.events)
		}
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeTrace stores the per-layer table and the benchmark-side spans of a
// traced run under .bench_build/trace/ in the working directory.
func writeTrace(name string, seed int64, ms map[string]metric, tr *tracer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		PerLayer map[string]metric `json:"per_layer"`
		Spans    []span            `json:"spans"`
	}{name, seed, ms, tr.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}
