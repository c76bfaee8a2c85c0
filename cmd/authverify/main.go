// Command authverify machine-checks leakage contracts by two-run secret
// non-interference: for every (seed, policy) cell it derives the static
// contract of the generated program, runs the program twice on data images
// that differ only in the secret bytes, and requires the bus-adversary views
// to differ only where the contract licenses it. It also sweeps the attack
// kernel catalog the same way, asserting every known bus-observed exploit
// leak is licensed by its contract.
//
// Verdicts per cell:
//
//	clean      views identical, contract empty (nothing claimed, nothing seen)
//	imprecise  views identical, contract non-empty (licensed leak never realized)
//	licensed   views differ only on licensed channels (the sound case)
//	unsound    views differ on an unlicensed channel — a FINDING: a dynamic
//	           leak the static analysis missed
//	error      the check could not run
//
// Usage:
//
//	authverify [flags]                 # seed sweep + kernel catalog
//	authverify -replay file.leak ...   # deterministic replay
//
// Examples:
//
//	authverify -seeds 1:200 -policies full -out findings/
//	authverify -seeds 1:50 -policies ci -mode cross -budget 2m
//	authverify -kernels=false -seeds 1:1000 -parallel 4
//
// The exit status is 0 when every cell is clean/imprecise/licensed (every
// replay matches), 1 when any unsound verdict, kernel pin violation, or
// replay mismatch is found, and 2 on usage errors and when the campaign
// could not record its results: a -cache write or the sweep itself failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"authpoint/internal/campaign/cli"
	"authpoint/internal/contract"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

func main() {
	s := cli.New("authverify", "full", "replay", ".leak")
	kernels := flag.Bool("kernels", true, "also check the attack-kernel catalog across the lattice")
	flag.Parse()

	if s.Replay {
		os.Exit(s.ReplayFiles(func(path string) (string, error) {
			l, err := contract.LoadLeak(path)
			if err != nil {
				s.Fatalf("%v", err)
			}
			res, err := l.Replay()
			return fmt.Sprintf("%s (%d/%d cycles)", res.Verdict, res.CyclesA, res.CyclesB), err
		}))
	}
	s.Start()

	cells := contract.PairCells(s.Seeds, s.Pols)
	if s.Mode == "cross" {
		cells = contract.CrossCells(s.Seeds, s.Pols)
	}
	findings := cli.Sweep(s, contract.Campaign(contract.Options{Cache: s.Store}, cells, s.Obs), cells, "",
		[]contract.Verdict{contract.VerdictClean, contract.VerdictImprecise,
			contract.VerdictLicensed, contract.VerdictUnsound, contract.VerdictError},
		func(r telemetry.Record) string {
			return fmt.Sprintf("seed %-6d %-45v %s", r.Seed, r.Policy, r.Verdict)
		})
	for _, res := range findings {
		reportFinding(s, res)
	}
	bad := len(findings) > 0
	if *kernels {
		bad = runKernels(s) || bad
	}
	s.Close()
	s.Exit(bad)
}

// reportFinding prints one unsound/error cell, optionally shrinks unsound
// programs, and records a replayable .leak under -out.
func reportFinding(s *cli.Session, res contract.Result) {
	fmt.Printf("authverify: FINDING seed %d under %v: %s: %s\n", res.Seed, res.Policy, res.Verdict, res.Diff)

	// The program contract.CheckSeed generated for the cell.
	src := diffcheck.GenSecretProgram(res.Seed)
	if s.Minimize && res.Verdict == contract.VerdictUnsound {
		src = contract.MinimizeUnsound(src, res)
	}
	if s.Out == "" {
		return
	}
	// Re-check the (possibly shrunk) source with the recorded images so the
	// .leak file replays byte-identically.
	final := contract.CheckProgram(src, contract.Options{
		Policy: res.Policy, Seed: res.Seed, SecretA: res.SecretA, SecretB: res.SecretB,
	})
	l := contract.NewLeak(final, src, "authverify finding: "+res.Diff)
	s.WriteOut(fmt.Sprintf("seed%d-%s.leak", res.Seed, res.Policy), l.WriteFile)
}

// runKernels checks the attack-kernel catalog across the full lattice: every
// bus-observed exploit leak must be licensed under non-obfuscating policies,
// never unsound anywhere, and address-free under obfuscation. This is the
// CLI edition of the catalog pin the contract package tests enforce.
func runKernels(s *cli.Session) bool {
	cases, err := contract.Catalog()
	if err != nil {
		s.Fatalf("%v", err)
	}
	bad := false
	checked := 0
	start := time.Now()
	for _, kc := range cases {
		// One preparation serves every policy of the case.
		k, err := contract.PrepareKernel(kc)
		for _, pt := range kernelPolicies(kc) {
			if err != nil {
				bad = true
				fmt.Printf("authverify: KERNEL %s under %v: %v\n", kc.Name, pt, err)
				continue
			}
			res := k.Check(contract.Options{Policy: pt})
			checked++
			if s.Verbose {
				fmt.Printf("kernel %-22s %-45v %s\n", kc.Name, pt, res.Verdict)
			}
			switch {
			case res.Verdict == contract.VerdictUnsound || res.Verdict == contract.VerdictError:
				bad = true
			case !kc.BusLeak && kc.BusLeakUnder == nil && res.Verdict != contract.VerdictClean:
				bad = true
			case kc.BusLeakUnder != nil && !kc.LeaksUnder(pt) && res.Verdict != contract.VerdictImprecise:
				// Policy closes the bus channel but the contract still
				// licenses it (taint flows through auth in every mode).
				bad = true
			case kc.LeaksUnder(pt) && !pt.Obfuscate && res.Verdict != contract.VerdictLicensed:
				bad = true
			default:
				continue
			}
			fmt.Printf("authverify: KERNEL PIN VIOLATION %s under %v: %s (bus-leak=%v): %s\n",
				kc.Name, pt, res.Verdict, kc.LeaksUnder(pt), res.Diff)
		}
	}
	fmt.Printf("authverify: kernel catalog: %d kernels, %d checks in %v\n",
		len(cases), checked, time.Since(start).Round(time.Millisecond))
	return bad
}

// kernelPolicies bounds the lattice slice per kernel: the non-halting victim
// kernels and the cache-washing state kernel run hundreds of thousands of
// cycles per check, so they get a representative slice instead of all 95
// points.
func kernelPolicies(kc contract.KernelCase) []policy.ControlPoint {
	if kc.ObserveWatchdog || !kc.BusLeak {
		return []policy.ControlPoint{
			policy.Baseline, policy.AuthOnly, policy.ThenCommit,
			policy.CommitPlusFetch, policy.CommitPlusObfuscation,
		}
	}
	return policy.FullLattice()
}
