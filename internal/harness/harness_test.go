package harness

import (
	"testing"

	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

func TestMeasureBasics(t *testing.T) {
	w, ok := workload.ByName("swimx")
	if !ok {
		t.Fatal("missing workload")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	m, err := Measure(Spec{Workload: w, Config: cfg, WarmupInsts: 5_000, MeasureInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Insts != 20_000 {
		t.Errorf("measured insts %d want 20000", m.Insts)
	}
	if m.IPC <= 0 || m.IPC > 8 {
		t.Errorf("IPC %v", m.IPC)
	}
	if m.Name != "swimx" || m.Policy != policy.ThenCommit {
		t.Errorf("metadata %q %v", m.Name, m.Policy)
	}
	if m.Cycles == 0 {
		t.Error("no cycles measured")
	}
}

func TestMeasureSkipsInitPhase(t *testing.T) {
	// mcfx declares a build phase; the default warmup must absorb it, so the
	// measured window shows pointer-chase IPC (far below the build phase's).
	w, ok := workload.ByName("mcfx")
	if !ok {
		t.Fatal("missing workload")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.Baseline
	m, err := Measure(Spec{Workload: w, Config: cfg, WarmupInsts: 5_000, MeasureInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if m.IPC > 0.5 {
		t.Errorf("mcfx measured IPC %.3f — window landed in the build phase", m.IPC)
	}
}

func TestMeasureDefaults(t *testing.T) {
	w, _ := workload.ByName("gapx")
	cfg := sim.DefaultConfig()
	m, err := Measure(Spec{Workload: w, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if m.Insts != DefaultMeasure {
		t.Errorf("default measure window %d", m.Insts)
	}
}

func TestMeasureRejectsBrokenWorkload(t *testing.T) {
	w := workload.Workload{Name: "broken", Source: "bogus r1"}
	if _, err := Measure(Spec{Workload: w, Config: sim.DefaultConfig()}); err == nil {
		t.Error("broken workload accepted")
	}
}
