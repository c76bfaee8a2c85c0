// Observer non-perturbation pins: attaching the observability surface — an
// obs.Hub sink plus the fast-path perf-counter block — must not change what
// the machine computes. The fast path stays cycle-identical and
// digest-identical with a hub watching every component, and the counters it
// reports stay mutually consistent with the hub's event-derived metrics.
package sim_test

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// runObserved executes p under cfg with a metrics hub and perf counters
// attached (slow selects the reference path) and returns the result, digest,
// hub snapshot, and perf block.
func runObserved(t *testing.T, cfg sim.Config, p *asm.Program, slow bool) (sim.Result, [32]byte, *obs.Snapshot, *obs.Perf) {
	t.Helper()
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	hub := obs.NewHub(nil, true)
	m.SetObserver(hub)
	perf := m.EnablePerf()
	if slow {
		m.DisableFastPath()
	}
	res, runErr := m.Run()
	if runErr != nil && res.Reason != sim.StopWatchdog {
		t.Fatalf("observed run (slow=%v): %v", slow, runErr)
	}
	dig := m.ArchDigest(interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	return res, dig, hub.Snapshot(), perf
}

// TestFastPathObserverNonPerturbing drives the random-program suite through
// every ci-policy point twice on the fast path — bare, and with a hub plus
// perf counters attached — and requires bit-identical results and digests.
// The observability layer is read-only by construction (counters and event
// emission never feed back into timing); this pins it.
func TestFastPathObserverNonPerturbing(t *testing.T) {
	points, err := policy.ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	seeds := int64(50)
	if testing.Short() {
		seeds = 8
	}
	var totalSkip, totalUop uint64
	for seed := int64(1); seed <= seeds; seed++ {
		p, err := asm.Assemble(diffcheck.GenProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		for _, pt := range points {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			bare, _, bareDig, _ := runBoth(t, cfg, p)
			obsRes, obsDig, snap, perf := runObserved(t, cfg, p, false)
			if obsRes != bare {
				t.Errorf("seed %d under %v: observed fast path diverges from bare\nbare     %+v\nobserved %+v",
					seed, pt, bare, obsRes)
			}
			if obsDig != bareDig {
				t.Errorf("seed %d under %v: observed arch digest diverges", seed, pt)
			}
			checkPerfConsistent(t, snap, perf)
			totalSkip += perf.SkipCycles
			totalUop += perf.UopHits
		}
	}
	// The suite as a whole must actually exercise the counted machinery.
	if totalSkip == 0 {
		t.Error("no cycles fast-forwarded across the whole suite; skip counters untested")
	}
	if totalUop == 0 {
		t.Error("no µop-cache hits across the whole suite; uop counters untested")
	}
}

// TestSlowPathObserverNonPerturbing covers the reference path: a hub and
// perf block attached to the per-cycle loop must not change its results
// either, and with the µop cache detached every decode counts as nocache.
func TestSlowPathObserverNonPerturbing(t *testing.T) {
	w := workload.All()[0]
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.MaxInsts = 20_000
	_, slowBare, _, slowBareDig := runBoth(t, cfg, p)
	obsRes, obsDig, snap, perf := runObserved(t, cfg, p, true)
	if obsRes != slowBare {
		t.Errorf("observed slow path diverges from bare\nbare     %+v\nobserved %+v", slowBare, obsRes)
	}
	if obsDig != slowBareDig {
		t.Errorf("observed slow-path arch digest diverges")
	}
	checkPerfConsistent(t, snap, perf)
	if perf.UopHits != 0 || perf.UopMisses != 0 {
		t.Errorf("slow path counted µop-cache traffic: hits=%d misses=%d", perf.UopHits, perf.UopMisses)
	}
	if perf.UopNoCache == 0 {
		t.Error("slow path counted no cache-less decodes")
	}
	if perf.SkipCalls != 0 {
		t.Errorf("slow path fast-forwarded %d times", perf.SkipCalls)
	}
}

// checkPerfConsistent cross-checks the inline perf counters against the
// hub's event-derived view of the same machinery: total skipped cycles must
// agree between Core.SkipTo accounting, the per-bound attribution, and the
// EvSkip events the hub folded into its skip-length histogram.
func checkPerfConsistent(t *testing.T, snap *obs.Snapshot, perf *obs.Perf) {
	t.Helper()
	var boundSum uint64
	for b := obs.SkipBound(0); b < obs.NumSkipBounds; b++ {
		boundSum += perf.SkipBoundCycles[b]
	}
	if boundSum != perf.SkipCycles {
		t.Errorf("skip attribution leak: bounds sum %d, SkipCycles %d", boundSum, perf.SkipCycles)
	}
	if snap == nil {
		t.Fatal("metrics hub returned no snapshot")
	}
	skips := snap.Histograms[obs.MetricSkipLen]
	if skips.Sum != perf.SkipCycles {
		t.Errorf("hub saw %d skipped cycles, perf counted %d", skips.Sum, perf.SkipCycles)
	}
	if skips.Count != perf.SkipCalls {
		t.Errorf("hub saw %d skips, perf counted %d", skips.Count, perf.SkipCalls)
	}
	if perf.Wakes+perf.StaleWakes != perf.ConsumerVisits {
		t.Errorf("wakeup accounting leak: wakes %d + stale %d != visits %d",
			perf.Wakes, perf.StaleWakes, perf.ConsumerVisits)
	}
}
