package harness

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/obs"
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

// A measured window's counts are those of a run to the window's end minus
// those of a run to the warm-up's end; the hub's histograms and the perf
// block cover the window too.
func TestMeasureMetricsWindow(t *testing.T) {
	w, _ := workload.ByName("mcfx")
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.CommitPlusFetch
	spec := Spec{Workload: w, Config: cfg, WarmupInsts: 5_000, MeasureInsts: 20_000, Metrics: true}
	meas, err := Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	countsAt := func(insts uint64) sim.Counts {
		c := cfg
		c.MaxInsts = insts
		m, err := sim.NewMachine(c, p)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		if res, err := m.Run(); err != nil || res.Reason != sim.StopMaxInsts {
			t.Fatalf("run to %d insts: %v %v", insts, res.Reason, err)
		}
		return m.Counts()
	}
	warm := w.InitInsts + spec.WarmupInsts
	before, after := countsAt(warm), countsAt(warm+spec.MeasureInsts)
	for name, v := range after {
		if got, want := meas.Metrics.Counters[name], v-before[name]; got != want {
			t.Errorf("window %s = %d, want %d - %d = %d", name, got, v, before[name], want)
		}
	}
	if got := meas.Metrics.Counters["pipe.commit"]; got != meas.Insts {
		t.Errorf("window committed %d, measured %d instructions", got, meas.Insts)
	}
	if before["sec.fetches"] == 0 || before["sec.fetch_gate_wait_cycles"] == 0 {
		t.Errorf("warm-up too short to tell a window from the whole run: %v", before)
	}
	if meas.Metrics.Histograms[obs.MetricAuthLatency].Count == 0 || meas.Metrics.Counters["fastpath.skip.calls"] == 0 {
		t.Errorf("window lacks the hub's histograms or the perf block: %+v", meas.Metrics)
	}
}
