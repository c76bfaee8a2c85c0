// Package harness runs measured simulations: assemble a workload, warm the
// machine up for a committed-instruction window, then measure IPC over a
// second window — the simulation-friendly analogue of the paper's SimPoint
// fast-forward + 400M-instruction methodology.
package harness

import (
	"fmt"

	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// Spec describes one measured run.
type Spec struct {
	Workload workload.Workload
	Config   sim.Config
	// WarmupInsts are committed before measurement starts (caches and
	// predictors warm during this window).
	WarmupInsts uint64
	// MeasureInsts is the measured window length.
	MeasureInsts uint64
	// Metrics attaches a metrics hub for the measured window, filling
	// Measurement.Metrics with the window's counts and the auth-latency /
	// decrypt→auth gap / queue-occupancy histograms.
	Metrics bool
}

// DefaultWarmup and DefaultMeasure size the windows so a full figure sweep
// completes in minutes while past the cold-start transient.
const (
	DefaultWarmup  = 30_000
	DefaultMeasure = 120_000
)

// Measurement is the outcome of one run.
type Measurement struct {
	Name string
	// Policy is the resolved control point the cell ran under: the spec's
	// Policy, normalized.
	Policy policy.ControlPoint
	IPC    float64 // measured-window IPC
	Cycles uint64  // measured-window cycles
	Insts  uint64  // measured-window instructions
	Result sim.Result
	// Metrics is the measured-window observability snapshot (nil unless
	// Spec.Metrics was set).
	Metrics *obs.Snapshot
}

// Measure runs one spec.
func Measure(spec Spec) (Measurement, error) {
	if spec.WarmupInsts == 0 {
		spec.WarmupInsts = DefaultWarmup
	}
	spec.WarmupInsts += spec.Workload.InitInsts
	if spec.MeasureInsts == 0 {
		spec.MeasureInsts = DefaultMeasure
	}
	p, err := assembleCached(spec.Workload.Source)
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: %s: %w", spec.Workload.Name, err)
	}
	cfg := spec.Config
	cfg.MaxInsts = spec.WarmupInsts
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: %s: %w", spec.Workload.Name, err)
	}
	// The measurement holds only values copied out of the machine, so a
	// later cell may rebuild it.
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: %s warmup: %w", spec.Workload.Name, err)
	}
	if res.Reason != sim.StopMaxInsts {
		return Measurement{}, fmt.Errorf("harness: %s warmup stopped early: %v", spec.Workload.Name, res.Reason)
	}
	warmCycles, warmInsts := res.Cycles, res.Insts

	// The measured window starts with warm caches, so its metrics exclude
	// cold-start fills: the hub and the perf counters attach here, and the
	// window's counts are the run's minus those read here.
	var hub *obs.Hub
	var base sim.Counts
	if spec.Metrics {
		hub = obs.NewHub(nil, true)
		m.SetObserver(hub)
		m.EnablePerf()
		base = m.Counts()
	}

	m.Cfg.MaxInsts = spec.WarmupInsts + spec.MeasureInsts
	res, err = m.Run()
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: %s measure: %w", spec.Workload.Name, err)
	}
	if res.Reason != sim.StopMaxInsts {
		return Measurement{}, fmt.Errorf("harness: %s measure stopped early: %v", spec.Workload.Name, res.Reason)
	}
	mc := res.Cycles - warmCycles
	mi := res.Insts - warmInsts
	out := Measurement{
		Name:   spec.Workload.Name,
		Policy: spec.Config.ControlPoint(),
		Cycles: mc,
		Insts:  mi,
		Result: res,
	}
	if mc > 0 {
		out.IPC = float64(mi) / float64(mc)
	}
	if hub != nil {
		out.Metrics = m.Metrics(hub, base)
	}
	return out, nil
}
