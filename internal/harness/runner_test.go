package harness

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// smallSpecs builds a baseline+schemes cross product over two kernels with
// short windows — enough cells to exercise the pool without minutes of
// simulation.
func smallSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range []string{"gapx", "lucasx"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		for _, pt := range []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.ThenIssue} {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			specs = append(specs, Spec{Workload: w, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 12_000})
		}
	}
	return specs
}

// TestRunAllDeterminism is the golden determinism test: a parallel run must
// produce results identical in every field — cycle counts, stall
// accounting, secure-memory stats — to a serial run. CI executes this under
// -race, which also makes it the concurrent-sweep race test.
func TestRunAllDeterminism(t *testing.T) {
	specs := smallSpecs(t)

	serial := &Runner{Parallelism: 1}
	parallel := &Runner{Parallelism: 8}
	so, err := serial.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	po, err := parallel.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(so) != len(specs) || len(po) != len(specs) {
		t.Fatalf("outcome counts %d/%d want %d", len(so), len(po), len(specs))
	}
	for i := range specs {
		if so[i].Index != i || po[i].Index != i {
			t.Errorf("cell %d: index mismatch serial=%d parallel=%d", i, so[i].Index, po[i].Index)
		}
		if !reflect.DeepEqual(so[i].Measurement, po[i].Measurement) {
			t.Errorf("cell %d (%s/%v): parallel measurement differs from serial:\nserial:   %+v\nparallel: %+v",
				i, specs[i].Workload.Name, specs[i].Config.Policy,
				so[i].Measurement, po[i].Measurement)
		}
	}
}

// TestRunAllBaselineMemo verifies the k+1 guarantee: one sweep over k
// schemes runs exactly one baseline simulation per workload, and re-running
// the same sweep adds zero.
func TestRunAllBaselineMemo(t *testing.T) {
	specs := smallSpecs(t) // 2 workloads x (baseline + 2 schemes)
	r := &Runner{Parallelism: 4}
	out, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BaselineSims(); got != 2 {
		t.Errorf("baseline sims after first sweep: %d want 2", got)
	}
	out2, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BaselineSims(); got != 2 {
		t.Errorf("baseline sims after repeat sweep: %d want 2 (memo missed)", got)
	}
	for i := range specs {
		if specs[i].Config.Policy != policy.Baseline {
			continue
		}
		if !out2[i].Cached {
			t.Errorf("cell %d: repeat baseline not served from memo", i)
		}
		if !reflect.DeepEqual(out[i].Measurement, out2[i].Measurement) {
			t.Errorf("cell %d: memoized baseline differs from original", i)
		}
	}
}

// TestRunAllFailFast: a broken cell cancels the sweep; the returned error is
// the failing cell's, and cells after it are either finished or skipped with
// the context error — never silently zero.
func TestRunAllFailFast(t *testing.T) {
	good, _ := workload.ByName("gapx")
	bad := workload.Workload{Name: "brokenx", Source: "bogus r1"}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	var specs []Spec
	specs = append(specs, Spec{Workload: bad, Config: cfg, WarmupInsts: 1_000, MeasureInsts: 1_000})
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{Workload: good, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 8_000})
	}
	r := &Runner{Parallelism: 2}
	out, err := r.RunAll(context.Background(), specs)
	if err == nil {
		t.Fatal("broken cell did not fail the sweep")
	}
	if out[0].Err == nil {
		t.Error("failing cell lost its error")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Err == nil && out[i].Measurement.Cycles == 0 {
			t.Errorf("cell %d: no error and no measurement", i)
		}
		if out[i].Err != nil && !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("cell %d: unexpected error %v", i, out[i].Err)
		}
	}
}

// TestRunAllExternalCancel: a pre-cancelled context runs nothing.
func TestRunAllExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Parallelism: 2}
	out, err := r.RunAll(ctx, smallSpecs(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, o := range out {
		if o.Err == nil {
			t.Errorf("cell %d ran despite cancelled context", i)
		}
	}
}

// TestRunAllProgress: the callback sees every cell exactly once, serially,
// with a monotonically increasing done count.
func TestRunAllProgress(t *testing.T) {
	specs := smallSpecs(t)
	var mu sync.Mutex
	seen := map[int]int{}
	lastDone := 0
	r := &Runner{Parallelism: 4, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		seen[p.Outcome.Index]++
		if p.Done != lastDone+1 {
			t.Errorf("done jumped %d -> %d", lastDone, p.Done)
		}
		lastDone = p.Done
		if p.Total != len(specs) {
			t.Errorf("total %d want %d", p.Total, len(specs))
		}
	}}
	if _, err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if seen[i] != 1 {
			t.Errorf("cell %d observed %d times", i, seen[i])
		}
	}
}

// TestRunAllEmpty: no specs, no outcomes, no error.
func TestRunAllEmpty(t *testing.T) {
	out, err := (&Runner{}).RunAll(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
