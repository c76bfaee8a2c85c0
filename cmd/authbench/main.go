// Command authbench regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper reports.
// Sweep cells fan out over a worker pool (one goroutine per cell, pool sized
// by -parallel); output is byte-identical to a serial run.
//
// Usage:
//
//	authbench -experiment all                  # everything (several minutes)
//	authbench -experiment fig7a                # one artifact
//	authbench -experiment table2 -quick        # fast smoke versions
//	authbench -experiment fig7a -parallel 8    # pin the worker pool
//	authbench -experiment fig8 -cpuprofile cpu.pprof     # profile the hot path
//	authbench -experiment table2 -metrics                # per-policy stall/gap summaries
//	authbench -experiment lattice                        # full composable-policy sweep
//
// Experiments: table1 table2 table3 fig6 fig7a fig7b fig7c fig7d fig8 fig9
// fig10 fig11 fig12 fig13 ablations lattice all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/campaign/cli"
	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/report"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "which artifact to regenerate (see doc)")
		quick    = flag.Bool("quick", false, "small workload subset and short windows")
		warmup   = flag.Uint64("warmup", 0, "override warmup instructions")
		measure  = flag.Uint64("measure", 0, "override measured instructions")
		loadList = flag.String("workloads", "", "comma-separated workload subset (default: all 18)")
		bars     = flag.Bool("bars", false, "render normalized-IPC sweeps as bar groups (figure-style)")
		o        = cli.NewObserve(runtime.NumCPU(), "print a per-policy stall/gap summary after each experiment")
	)
	flag.Parse()

	p := experiments.DefaultParams()
	if *quick {
		p = experiments.QuickParams()
	}
	if *warmup > 0 {
		p.Warmup = *warmup
	}
	if *measure > 0 {
		p.Measure = *measure
	}
	if *loadList != "" {
		var ws []workload.Workload
		for _, name := range strings.Split(*loadList, ",") {
			w, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			ws = append(ws, w)
		}
		p.Workloads = ws
	}

	if err := o.Open("authbench", "authbench:"+*exp); err != nil {
		fatalf("%v", err)
	}
	// The runner's baseline memo spans every experiment of the invocation.
	p.Runner = &harness.Runner{Parallelism: o.Parallel}
	b := &bench{p: p, bars: *bars, obs: o}
	start := time.Now()
	for _, e := range strings.Split(*exp, ",") {
		if err := b.run(strings.TrimSpace(e)); err != nil {
			fatalf("%s: %v", e, err)
		}
	}
	fmt.Fprintf(os.Stderr, "\n(total wall time %v, %d workers)\n", time.Since(start).Round(time.Second), o.Parallel)

	if err := o.Close(); err != nil {
		fatalf("telemetry: %v", err)
	}
	if err := o.Stop(); err != nil {
		fatalf("%v", err)
	}
}

// bench runs experiments on one runner under the command's flags.
type bench struct {
	p    experiments.Params
	bars bool // render normalized-IPC sweeps as bar groups
	obs  *cli.Observe
}

func (b *bench) renderSweep(w *os.File, sw *experiments.Sweep) {
	if b.bars {
		sw.RenderBars(w)
		return
	}
	sw.Render(w)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authbench: "+format+"\n", args...)
	os.Exit(1)
}

// run dispatches one experiment name. A leaf experiment's sweeps share one
// SweepObs on the runner, so under -metrics the per-policy rows printed
// after it cover that experiment's cells.
func (b *bench) run(name string) error {
	if name == "all" {
		return b.runLeaf(name)
	}
	var so *campaign.SweepObs
	if shared := b.obs.Obs; shared != nil {
		so = &campaign.SweepObs{Ledger: shared.Ledger, Meter: shared.Meter, CollectMetrics: shared.CollectMetrics}
	}
	b.p.Runner.Obs = so
	if err := b.runLeaf(name); err != nil {
		return err
	}
	if so != nil && so.CollectMetrics {
		fmt.Println()
		report.WriteSchemeSummaries(os.Stdout, so.Rows())
	}
	return nil
}

func (b *bench) runLeaf(name string) error {
	p := b.p
	w := os.Stdout
	section := func(s string) { fmt.Fprintf(w, "\n==== %s ====\n", s) }
	switch name {
	case "all":
		// fig10 renders fig11 and fig12 renders fig13 (they derive from the
		// same sweeps), so each pair runs once.
		for _, e := range []string{
			"table1", "table2", "table3", "fig6",
			"fig7a", "fig7b", "fig7c", "fig7d",
			"fig8", "fig9", "fig10", "fig12",
		} {
			if err := b.run(e); err != nil {
				return err
			}
		}
		return nil

	case "lattice":
		section("Lattice: normalized IPC across the composable control-point space")
		return runLatticeExperiment(w, p)

	case "table1":
		section("Table 1")
		rows, err := experiments.Table1(sim.DefaultConfig())
		if err != nil {
			return err
		}
		experiments.RenderTable1(w, rows)

	case "table2":
		section("Table 2")
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		experiments.RenderTable2(w, rows)

	case "table3":
		section("Table 3")
		experiments.RenderTable3(w, sim.DefaultConfig())

	case "fig6":
		section("Figure 6")
		rows, err := experiments.Fig6()
		if err != nil {
			return err
		}
		experiments.RenderFig6(w, rows)

	case "fig7a", "fig7b", "fig7c", "fig7d":
		fp := name == "fig7b" || name == "fig7d"
		l2 := 256 << 10
		lat := 4
		if name == "fig7c" || name == "fig7d" {
			l2 = 1 << 20
			lat = 8
		}
		section("Figure 7" + name[4:])
		sw, err := experiments.Fig7(p, fp, l2, lat)
		if err != nil {
			return err
		}
		b.renderSweep(w, sw)

	case "fig8":
		// Figure 8 derives from the 256KB Figure 7 data: IPC speedup of the
		// relaxed schemes over authen-then-issue.
		section("Figure 8")
		sw, err := experiments.RunSweep("fig8 base data (256KB L2)", p,
			[]policy.ControlPoint{policy.ThenIssue, policy.ThenWrite, policy.ThenCommit, policy.CommitPlusFetch}, nil)
		if err != nil {
			return err
		}
		experiments.RenderSpeedups(w, "Figure 8: IPC speedup over authen-then-issue, 256KB L2",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.ThenWrite, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.ThenWrite, policy.CommitPlusFetch})

	case "fig9":
		section("Figure 9")
		pts, err := experiments.Fig9(p, []int{64 << 10, 256 << 10, 1 << 20})
		if err != nil {
			return err
		}
		experiments.RenderFig9(w, pts)

	case "fig10", "fig11":
		section("Figures 10/11 (64-entry RUU)")
		sw, err := experiments.Fig10(p)
		if err != nil {
			return err
		}
		b.renderSweep(w, sw)
		experiments.RenderSpeedups(w, "Figure 11: speedup over authen-then-issue, 64-entry RUU",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch})

	case "fig12", "fig13":
		section("Figures 12/13 (MAC-tree authentication)")
		sw, err := experiments.Fig12(p)
		if err != nil {
			return err
		}
		b.renderSweep(w, sw)
		experiments.RenderSpeedups(w, "Figure 13: speedup over authen-then-issue, MAC tree",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch})

	case "ablations":
		section("Ablations (design-choice sensitivity, beyond the paper's figures)")
		abls, err := experiments.AllAblations(p)
		if err != nil {
			return err
		}
		for _, a := range abls {
			a.Render(w)
		}

	default:
		return fmt.Errorf("unknown experiment (want table1..3, fig6..fig13, ablations, lattice, or all)")
	}
	return nil
}
