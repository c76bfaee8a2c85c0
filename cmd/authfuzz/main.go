// Command authfuzz hunts correctness bugs in the timed simulator by
// differential fuzzing: seed-deterministic random programs run on the
// out-of-order machine and on the in-order oracle, across the
// authentication control-point lattice, and every piece of architectural
// state is diffed. Tamper mode flips a bit in the encrypted image and
// asserts the containment invariants of gated policies; monotone mode
// asserts the metamorphic timing invariant (removing stall gates never
// costs cycles). Divergences are shrunk to minimal programs and written as
// deterministic .repro files that replay byte-identically.
//
// Usage:
//
//	authfuzz [flags]                  # fuzz sweep
//	authfuzz -repro file.repro ...    # deterministic replay
//
// Examples:
//
//	authfuzz -seeds 1:500 -policies ci -tamper -out findings/
//	authfuzz -seeds 1:50 -policies full -mode cross -monotone
//	authfuzz -repro internal/diffcheck/testdata/s2l-forwarding.repro
//
// The exit status is 0 when every check is clean (every replay matches), 1
// when any divergence, invariant violation, or replay mismatch is found,
// and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"authpoint/internal/campaign/cli"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

func main() {
	s := cli.New("authfuzz", "ci", "repro", ".repro")
	var (
		tamper   = flag.Bool("tamper", false, "also run every cell with a tampered line and check containment invariants")
		tamperAt = flag.String("tamper-site", "entry", "tamper site: entry (first instruction line), data (first data-segment line), mac (stored line MAC), ctr (write counter), or tree (integrity-tree leaf)")
		monotone = flag.Bool("monotone", false, "per seed, check cycle monotonicity across the policy set (runs every policy per seed)")
	)
	flag.Parse()

	if s.Replay {
		os.Exit(s.ReplayFiles(func(path string) (string, error) {
			r, err := diffcheck.LoadRepro(path)
			if err != nil {
				s.Fatalf("%v", err)
			}
			res, err := r.Replay()
			return fmt.Sprintf("%s (%d cycles, %d insts)", res.Verdict, res.Cycles, res.Insts), err
		}))
	}
	site := diffcheck.TamperSite(*tamperAt)
	if !slices.Contains(diffcheck.Sites(), site) {
		s.Fatalf("tamper-site %q: want one of %v", *tamperAt, diffcheck.Sites())
	}
	s.Start()

	cells := func(tamper bool) []diffcheck.Cell {
		if s.Mode == "cross" {
			return diffcheck.CrossCells(s.Seeds, s.Pols, tamper)
		}
		return diffcheck.PairCells(s.Seeds, s.Pols, tamper)
	}
	all := cells(false)
	if *tamper {
		all = append(all, diffcheck.WithSite(cells(true), site)...)
	}
	checker := diffcheck.Campaign(diffcheck.Options{Cache: s.Store}, all, s.Obs)
	findings := cli.Sweep(s, checker, all, fmt.Sprintf(", tamper %v", *tamper),
		[]diffcheck.Verdict{diffcheck.VerdictOK, diffcheck.VerdictContained, diffcheck.VerdictDetected,
			diffcheck.VerdictUndetected, diffcheck.VerdictDivergence, diffcheck.VerdictError},
		func(r telemetry.Record) string {
			return fmt.Sprintf("seed %-6d %-45v tamper=%-5v %s", r.Seed, r.Policy, r.Tamper, r.Verdict)
		})
	for _, res := range findings {
		reportFinding(s, res)
	}
	bad := len(findings) > 0
	s.Close()
	if *monotone {
		bad = runMonotone(s.Seeds, s.Pols, s.Verbose) || bad
	}
	s.Exit(bad)
}

// reportFinding prints one divergence, optionally shrinks it, and records a
// replayable .repro under -out.
func reportFinding(s *cli.Session, res diffcheck.Result) {
	tag := fmt.Sprint(res.Tamper)
	if res.Tamper && res.Site != "" {
		tag = string(res.Site)
	}
	fmt.Printf("authfuzz: FINDING seed %d under %v tamper=%s: %s: %s\n",
		res.Seed, res.Policy, tag, res.Verdict, res.Divergence)

	src := diffcheck.GenProgram(res.Seed)
	if s.Minimize && res.Verdict == diffcheck.VerdictDivergence {
		opt := diffcheck.Options{Policy: res.Policy, Tamper: res.Tamper, TamperSite: res.Site, WatchdogCycles: 500_000}
		src = diffcheck.Minimize(src, func(cand string) bool {
			return diffcheck.Check(cand, opt).Verdict == diffcheck.VerdictDivergence
		})
	}
	if s.Out == "" {
		return
	}
	// Re-check with default options so the recording replays with defaults.
	final := diffcheck.Check(src, diffcheck.Options{Policy: res.Policy, Tamper: res.Tamper, TamperSite: res.Site})
	final.Seed = res.Seed
	r := diffcheck.NewRepro(final, src, "authfuzz finding: "+res.Divergence)
	s.WriteOut(reproName(res), r.WriteFile)
}

// reproName names the .repro file of a finding: one name per (seed, policy,
// tamper site), so campaigns over different sites can share one -out
// directory. Entry-site tamper findings keep the bare "-tamper" suffix.
func reproName(res diffcheck.Result) string {
	name := fmt.Sprintf("seed%d-%s", res.Seed, res.Policy)
	if res.Tamper {
		name += "-tamper"
		if res.Site != "" && res.Site != diffcheck.SiteEntry {
			name += "-" + string(res.Site)
		}
	}
	return name + ".repro"
}

func runMonotone(seeds []int64, pols []policy.ControlPoint, verbose bool) bool {
	bad := false
	for _, seed := range seeds {
		src := diffcheck.GenProgram(seed)
		results, viols := diffcheck.CheckMonotone(src, pols, diffcheck.Options{})
		for _, r := range results {
			if r.Verdict == diffcheck.VerdictDivergence || r.Verdict == diffcheck.VerdictError {
				bad = true
				fmt.Printf("authfuzz: FINDING seed %d under %v: %s: %s\n", seed, r.Policy, r.Verdict, r.Divergence)
			}
		}
		for _, v := range viols {
			bad = true
			fmt.Printf("authfuzz: MONOTONE seed %d: %s\n", seed, v)
		}
		if verbose {
			fmt.Printf("seed %-6d monotone over %d policies: %d violations\n", seed, len(pols), len(viols))
		}
	}
	return bad
}
