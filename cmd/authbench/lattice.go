package main

import (
	"fmt"
	"io"

	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
)

// runLatticeExperiment sweeps every single- and two-gate composition of the
// control-point lattice (policy.Lattice, 27 points — the canonical schemes
// plus compositions no registered name covers) and renders the
// normalized-IPC table and a summary line. A fresh runner, with the
// worker count and the experiment's SweepObs of p's runner, isolates the
// baseline-memo evidence from the invocation's memo: the summary's
// baseline count equals the workload count when the memo works, i.e. a
// k-policy sweep costs k+1 simulations per workload, not 2k.
func runLatticeExperiment(w io.Writer, p experiments.Params) error {
	points := policy.Lattice()
	r := &harness.Runner{Parallelism: p.Runner.Parallelism, Obs: p.Runner.Obs}
	p.Runner = r

	sw, err := experiments.RunSweep("lattice sweep: all 1- and 2-gate compositions", p, points, nil)
	if err != nil {
		return err
	}
	sw.Render(w)
	fmt.Fprintf(w, "\nlattice: %d policies x %d workloads, %d baseline sims (memoized k+1)\n",
		len(points), len(p.Workloads), r.BaselineSims())
	return nil
}
