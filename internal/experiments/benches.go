// Benchmark registrations: every pimbench benchmark this package backs is
// wired into the bench registry here, at init time. cmd/pimbench only
// blank-imports the package — adding an experiment to the `pimbench run`
// surface means one bench.Register call in this file, nothing else
// (DESIGN.md §15). Each Run prints its measurements, enforces its gate
// (errors refuse the record), and queues ledger entries through the shared
// bench.Context.
package experiments

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"pim/internal/bench"
	"pim/internal/netsim"
	"pim/internal/trees"
)

func init() {
	bench.Register("fig2", bench.Spec{
		Summary: "Figure 2(a)/2(b) tree-quality sweeps, sequential vs parallel workers",
		Ledger:  "BENCH_fig2.json",
		Run:     runFig2Bench,
	})
	bench.Register("dataplane", bench.Spec{
		Summary: "steady-state forwarding down the N-hop chain, three protocol phases",
		Ledger:  "BENCH_dataplane.json",
		Run:     runDataplaneBench,
	})
	bench.Register("recovery", bench.Spec{
		Summary: "fault-recovery matrix: every protocol through loss, flap, crash",
		Ledger:  "BENCH_recovery.json",
		Run:     runRecoveryBench,
	})
	bench.Register("scaling", bench.Spec{
		Summary: "large-internet scaling sweeps (plus a sharded pass with -shards N>1)",
		Ledger:  "BENCH_scale.json",
		Run:     runScalingBench,
	})
	bench.Register("tenk", bench.Spec{
		Summary: "10 000-router size cells, sequential and sharded",
		Ledger:  "BENCH_scale.json",
		Run:     runTenKBench,
	})
	bench.Register("ctrlplane", bench.Spec{
		Summary: "steady-state control-plane churn on a 1000-router internet",
		Ledger:  "BENCH_ctrlplane.json",
		Run:     runCtrlPlaneBench,
	})
	bench.Register("telemetry", bench.Spec{
		Summary: "PIM-SM crash-recovery telemetry curves (writes JSON report, no ledger)",
		Run:     runTelemetryBench,
	})
}

// FigBench is the measurement of one figure's sweep.
type FigBench struct {
	Trials      int     `json:"trials"`
	Degrees     int     `json:"degrees"`
	Wall1Ms     float64 `json:"wall_ms_workers_1"`
	WallAllMs   float64 `json:"wall_ms_workers_all"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"series_identical"`
	FirstSeries any     `json:"first_point"`
}

// Fig2Entry is one appended record of the Figure 2 ledger.
type Fig2Entry struct {
	bench.LedgerHeader
	Fig2a FigBench `json:"fig2a"`
	Fig2b FigBench `json:"fig2b"`
}

// fig2Sweep times one figure's sweep with one worker and with all workers
// and checks the two series are bit-identical.
func fig2Sweep[P any](trials, degrees int, run func(workers int) []P,
	first func([]P) any) FigBench {
	t0 := time.Now()
	seq := run(1)
	wall1 := time.Since(t0)
	t0 = time.Now()
	par := run(0)
	wallAll := time.Since(t0)
	return FigBench{
		Trials: trials, Degrees: degrees,
		Wall1Ms:     float64(wall1.Microseconds()) / 1000,
		WallAllMs:   float64(wallAll.Microseconds()) / 1000,
		Speedup:     float64(wall1) / float64(wallAll),
		Identical:   reflect.DeepEqual(seq, par),
		FirstSeries: first(seq),
	}
}

func runFig2Bench(ctx *bench.Context) error {
	entry := Fig2Entry{LedgerHeader: ctx.Header("")}

	cfgA := trees.DefaultFig2a()
	cfgB := trees.DefaultFig2b()
	if ctx.Smoke {
		cfgA.Trials, cfgB.Trials = 2, 2
	}
	entry.Fig2a = fig2Sweep(cfgA.Trials, len(cfgA.Degrees),
		func(workers int) []trees.Fig2aPoint {
			c := cfgA
			c.Workers = workers
			return trees.RunFig2a(c)
		},
		func(seq []trees.Fig2aPoint) any {
			return map[string]float64{"degree": seq[0].Degree, "mean_ratio": seq[0].MeanRatio}
		})
	ctx.Printf("fig2a: %d trials × %d degrees  workers=1 %.0f ms  workers=all %.0f ms  speedup %.2fx  identical=%v",
		cfgA.Trials, len(cfgA.Degrees), entry.Fig2a.Wall1Ms, entry.Fig2a.WallAllMs,
		entry.Fig2a.Speedup, entry.Fig2a.Identical)

	entry.Fig2b = fig2Sweep(cfgB.Trials, len(cfgB.Degrees),
		func(workers int) []trees.Fig2bPoint {
			c := cfgB
			c.Workers = workers
			return trees.RunFig2b(c)
		},
		func(seq []trees.Fig2bPoint) any {
			return map[string]float64{"degree": seq[0].Degree, "spt_max": seq[0].SPTMax, "cbt_max": seq[0].CBTMax}
		})
	ctx.Printf("fig2b: %d trials × %d degrees  workers=1 %.0f ms  workers=all %.0f ms  speedup %.2fx  identical=%v",
		cfgB.Trials, len(cfgB.Degrees), entry.Fig2b.Wall1Ms, entry.Fig2b.WallAllMs,
		entry.Fig2b.Speedup, entry.Fig2b.Identical)

	if !entry.Fig2a.Identical || !entry.Fig2b.Identical {
		return fmt.Errorf("parallel series diverged from sequential — not recording")
	}
	ctx.Append(entry)
	return nil
}

// DataplaneEntry is one appended record of the data-plane ledger.
type DataplaneEntry struct {
	bench.LedgerHeader
	Result DataplaneResult `json:"result"`
}

func runDataplaneBench(ctx *bench.Context) error {
	cfg := DefaultDataplane()
	if ctx.Smoke {
		cfg = SmokeDataplane()
	}
	res := RunDataplane(cfg)
	for _, p := range res.Phases {
		ctx.Printf("dataplane %-6s  %8.1f ms  delivered=%d crossings=%d",
			p.Name, p.WallMs, p.Delivered, p.Crossings)
	}
	ctx.Printf("dataplane total %.1f ms", res.WallMs)
	ctx.Append(DataplaneEntry{LedgerHeader: ctx.Header(""), Result: res})
	return nil
}

// RecoveryEntry is one appended record of the fault-recovery ledger.
type RecoveryEntry struct {
	bench.LedgerHeader
	Result RecoveryResult `json:"result"`
}

// runRecoveryBench runs the matrix under the online invariant checker and
// refuses to record if any cell reports a violation.
func runRecoveryBench(ctx *bench.Context) error {
	cfg := DefaultRecovery()
	if ctx.Smoke {
		cfg = SmokeRecovery()
	}
	cfg.Checked = true
	cfg.Shards = ctx.Shards
	res := RunRecovery(cfg)
	violations := 0
	for _, c := range res.Cells {
		rec := "   never"
		if c.Recovered {
			rec = fmt.Sprintf("%7.2fs", c.RecoverySec)
		}
		ctx.Printf("recovery %-13s %-7s %s  ctrl=%4d  residual=%3d  delivered=%4d  violations=%d",
			c.Protocol, c.Fault, rec, c.CtrlMessages, c.ResidualState, c.Delivered, len(c.Violations))
		violations += len(c.Violations)
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations in the matrix — not recording", violations)
	}
	ctx.Printf("recovery all recovered=%v", res.AllRecovered)
	ctx.Append(RecoveryEntry{LedgerHeader: ctx.Header(""), Result: res})
	return nil
}

// MicroBench is one scheduler microbenchmark column of the scaling ledger.
type MicroBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ScalingEntry is one appended record of the scaling ledger: the sequential
// pass with the scheduler microbenchmarks, or a sharded pass gated against
// it.
type ScalingEntry struct {
	bench.LedgerHeader
	Result ScalingBenchResult `json:"result"`
	Churn  MicroBench         `json:"sched_churn"`
	Dense  MicroBench         `json:"sched_dense"`
}

// schedMicroBench replays one deterministic scheduler workload under
// testing.Benchmark and reports ns/op and allocs/op. The parked-timer
// population is rebuilt outside the timed region on each probe.
func schedMicroBench(workload func(*netsim.Scheduler, int)) MicroBench {
	r := testing.Benchmark(func(b *testing.B) {
		s := netsim.PrepSchedulerBench()
		b.ReportAllocs()
		b.ResetTimer()
		workload(s, b.N)
	})
	return MicroBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// scalingPass executes one scaling sweep pass on the given shard count,
// printing one line per sweep.
func scalingPass(ctx *bench.Context, cfg ScalingBenchConfig, shards int) ScalingBenchResult {
	cfg.Base.Shards = shards
	res := RunScalingBench(cfg)
	for _, sw := range res.Sweeps {
		ctx.Printf("scaling %-7s shards=%d  %2d cells  %9.1f ms  %9d events  %9.0f events/sec  peak timers %d",
			sw.Name, shards, sw.Cells, sw.WallMs, sw.Events, sw.EventsPerSec, sw.PeakTimers)
	}
	return res
}

// shardedPass runs cfg on ctx.Shards shards and gates its grid against the
// sequential pass seq; it returns nil when no sharded pass was requested.
func shardedPass(ctx *bench.Context, cfg ScalingBenchConfig, seq ScalingBenchResult) (*ScalingBenchResult, error) {
	if ctx.Shards <= 1 {
		return nil, nil
	}
	res := scalingPass(ctx, cfg, ctx.Shards)
	if !SameGridsSharded(seq, res) {
		return nil, fmt.Errorf("shards=%d grid diverged from sequential — not recording", ctx.Shards)
	}
	ctx.Printf("sharded grid identical; wall %0.1f ms (shards=1) vs %0.1f ms (shards=%d), %.2fx",
		seq.WallMs, res.WallMs, ctx.Shards, seq.WallMs/res.WallMs)
	return &res, nil
}

func runScalingBench(ctx *bench.Context) error {
	cfg := DefaultScalingBench()
	if ctx.Smoke {
		cfg = SmokeScalingBench()
	}
	seq := scalingPass(ctx, cfg, 1)
	sharded, err := shardedPass(ctx, cfg, seq)
	if err != nil {
		return err
	}
	if ctx.Smoke {
		ctx.Printf("smoke run: grid gate passed, nothing recorded")
		return nil
	}
	h := ctx.Header("")
	h.Shards = 1
	e := ScalingEntry{
		LedgerHeader: h,
		Result:       seq,
		Churn:        schedMicroBench(netsim.SchedulerChurn),
		Dense:        schedMicroBench(netsim.SchedulerDense),
	}
	ctx.Printf("sched micro  churn %8.1f ns/op (%d allocs/op)  dense %8.1f ns/op (%d allocs/op)",
		e.Churn.NsPerOp, e.Churn.AllocsPerOp, e.Dense.NsPerOp, e.Dense.AllocsPerOp)
	ctx.Append(e)
	if sharded != nil {
		ctx.Append(ScalingEntry{LedgerHeader: ctx.Header(fmt.Sprintf("-shards%d", ctx.Shards)), Result: *sharded})
	}
	return nil
}

func runTenKBench(ctx *bench.Context) error {
	cfg := TenKScalingBench()
	if ctx.Smoke {
		// The 10k cells take minutes; smoke verifies the same
		// sequential-vs-sharded gate on the CI-sized workload instead.
		cfg = SmokeScalingBench()
	}
	seq := scalingPass(ctx, cfg, 1)
	sharded, err := shardedPass(ctx, cfg, seq)
	if err != nil {
		return err
	}
	if ctx.Smoke {
		ctx.Printf("smoke run: grid gate passed, nothing recorded")
		return nil
	}
	h := ctx.Header("-10k-seq")
	h.Shards = 1
	ctx.Append(ScalingEntry{LedgerHeader: h, Result: seq})
	if sharded != nil {
		ctx.Append(ScalingEntry{LedgerHeader: ctx.Header(fmt.Sprintf("-10k-shards%d", ctx.Shards)), Result: *sharded})
	}
	return nil
}

// CtrlPlaneEntry is one appended record of the control-plane churn ledger.
type CtrlPlaneEntry struct {
	bench.LedgerHeader
	Result CtrlPlaneResult `json:"result"`
}

func runCtrlPlaneBench(ctx *bench.Context) error {
	cfg := DefaultCtrlPlane()
	if ctx.Smoke {
		cfg = SmokeCtrlPlane()
	}
	res := RunCtrlPlane(cfg)
	for _, c := range res.Cells {
		ctx.Printf("ctrlplane %-13s %8d msgs  %9.1f ms  %9.0f msgs/sec  %6.2f allocs/msg  gc=%d pause %6.2f ms  heap %6.1f MB",
			c.Protocol, c.CtrlMessages, c.WallMs, c.MsgsPerSec,
			c.AllocsPerMsg, c.GCCycles, c.GCPauseMs, c.HeapMB)
	}
	if ctx.Smoke {
		ctx.Printf("smoke run: nothing recorded")
		return nil
	}
	ctx.Append(CtrlPlaneEntry{LedgerHeader: ctx.Header(""), Result: res})
	return nil
}

// runTelemetryBench runs the PIM-SM crash/restart recovery cell with the
// time-series sampler attached and writes the per-router counter curves as
// JSON to ctx.Out (default telemetry.json); smoke runs the smoke-sized cell
// and discards the output. No ledger is touched either way.
func runTelemetryBench(ctx *bench.Context) error {
	cfg := DefaultRecovery()
	if ctx.Smoke {
		cfg = SmokeRecovery()
	}
	cfg.Shards = ctx.Shards
	smp := RecoveryTelemetry(cfg, PIMSM, FaultCrash, 5*netsim.Second)
	if ctx.Smoke {
		if err := smp.WriteJSON(io.Discard); err != nil {
			return err
		}
		ctx.Printf("smoke run: telemetry curves rendered, nothing written")
		return nil
	}
	out := ctx.Out
	if out == "" {
		out = "telemetry.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := smp.WriteJSON(f); err != nil {
		return err
	}
	ctx.Printf("wrote pim-sm/crash telemetry curves to %s", out)
	return nil
}
