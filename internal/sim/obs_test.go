package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
)

// A full-auth (then-commit + then-fetch) run with an observer attached must
// produce a valid Perfetto trace in which auth-complete lags decrypt-ready,
// and metrics whose derived counts agree with the controller's own stats.
func TestTracedFullAuthRun(t *testing.T) {
	p := asm.MustAssemble(`
	_start:
		la   r1, arr
		li   r2, 256
	loop:
		ld   r3, 0(r1)
		add  r4, r4, r3
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	.data
	arr: .space 16384
	`)
	cfg := DefaultConfig()
	cfg.Policy = policy.CommitPlusFetch
	m, err := NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(obs.NewTracer(0), true)
	m.SetObserver(hub)
	res, err := m.Run()
	if err != nil || res.Reason != StopHalt {
		t.Fatalf("%v %v", res.Reason, err)
	}

	snap := hub.Snapshot()
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if got := snap.Counters["auth.requests"]; got != res.Sec.AuthRequests {
		t.Errorf("auth.requests = %d, controller counted %d", got, res.Sec.AuthRequests)
	}
	if got := snap.Counters["auth.completes"]; got != res.Sec.AuthRequests {
		t.Errorf("auth.completes = %d, want %d", got, res.Sec.AuthRequests)
	}
	if got := snap.Counters["pipe.commit"]; got != res.Core.Committed {
		t.Errorf("pipe.commit = %d, core committed %d", got, res.Core.Committed)
	}
	if got := snap.Counters["sec.fetches"]; got != res.Sec.Fetches {
		t.Errorf("sec.fetches = %d, controller counted %d", got, res.Sec.Fetches)
	}
	gap := snap.Histograms[obs.MetricAuthGap]
	if gap.Count == 0 || gap.Sum == 0 {
		t.Fatalf("decrypt→auth gap histogram empty: %+v", gap)
	}
	if res.Core.CommitAuthStall > 0 && snap.Counters["stall.commit-auth.cycles"] == 0 {
		t.Errorf("core counted %d commit-auth stall cycles but the hub derived none",
			res.Core.CommitAuthStall)
	}
	lat := snap.Histograms[obs.MetricAuthLatency]
	if lat.Count != res.Sec.AuthRequests {
		t.Errorf("latency samples = %d, want %d", lat.Count, res.Sec.AuthRequests)
	}

	var buf bytes.Buffer
	if err := hub.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	// Auth-complete lagging decrypt-ready shows up as "gap" spans.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var gaps, verifies int
	for _, e := range f.TraceEvents {
		switch e.Name {
		case "gap":
			if e.Dur > 0 {
				gaps++
			}
		case "auth-verify":
			verifies++
		}
	}
	if gaps == 0 {
		t.Error("trace shows no auth-complete lagging decrypt-ready")
	}
	if verifies == 0 {
		t.Error("trace has no auth-verify spans")
	}
}

// An observer-free run must be bit-identical in timing to an observed one:
// the sink changes what is recorded, never what is simulated.
func TestObserverDoesNotPerturbTiming(t *testing.T) {
	src := `
	_start:
		la   r1, arr
		li   r2, 64
	loop:
		ld   r3, 0(r1)
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	.data
	arr: .space 4096
	`
	run := func(observe bool) Result {
		p := asm.MustAssemble(src)
		cfg := DefaultConfig()
		cfg.Policy = policy.ThenCommit
		m, err := NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			m.SetObserver(obs.NewHub(obs.NewTracer(0), true))
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, observed := run(false), run(true)
	if plain.Cycles != observed.Cycles || plain.Insts != observed.Insts {
		t.Fatalf("observer perturbed timing: %d/%d cycles, %d/%d insts",
			plain.Cycles, observed.Cycles, plain.Insts, observed.Insts)
	}
}
