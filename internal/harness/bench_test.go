package harness

import (
	"context"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// BenchmarkAssemble measures assembling the full 18-kernel catalog from
// source — the cost the per-process image cache pays once instead of once
// per sweep cell.
func BenchmarkAssemble(b *testing.B) {
	all := workload.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			if _, err := asm.Assemble(w.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(all)), "kernels")
}

// BenchmarkMeasureCell measures one warmup+measure sweep cell end to end
// (assembly amortized through the image cache, as in production sweeps).
func BenchmarkMeasureCell(b *testing.B) {
	w, ok := workload.ByName("swimx")
	if !ok {
		b.Fatal("missing workload")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	spec := Spec{Workload: w, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 12_000}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := Measure(spec)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Result.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// benchSpecs is a 2-workload x (baseline+3 schemes) grid, the shape of one
// figure-sweep slice.
func benchSpecs(b *testing.B) []Spec {
	b.Helper()
	var specs []Spec
	for _, name := range []string{"gapx", "swimx"} {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("missing workload %s", name)
		}
		for _, pt := range []policy.ControlPoint{policy.Baseline, policy.ThenIssue, policy.ThenCommit, policy.CommitPlusFetch} {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			specs = append(specs, Spec{Workload: w, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 12_000})
		}
	}
	return specs
}

func benchSweep(b *testing.B, parallelism int) {
	specs := benchSpecs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runner each iteration: the baseline memo would otherwise
		// turn iterations 2..N into partial no-ops.
		r := &Runner{Parallelism: parallelism}
		if _, err := r.RunAll(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "cells")
}

// BenchmarkSweepSerial runs the grid on one worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid on a full pool; comparing
// ns/op against BenchmarkSweepSerial gives the host's sweep speedup.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }
