package secmem_test

import (
	"testing"

	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/secmem"
	"authpoint/internal/workload"
)

// A one-worker sweep seals each kernel once. experiments.RunSweep runs a
// kernel's cells in a row, the baseline and then each control point, and
// every one of them builds the same layout: its image is over the memo's
// cap, and the memo holds the last such image. Figure 12 over four kernels
// seals 4 of its 24 builds, and the Figure 7 INT trio 3 of its 21.
func TestSweepSealsEachKernelOnce(t *testing.T) {
	for _, tc := range []struct {
		name           string
		kernels        []string
		run            func(experiments.Params) error
		builds, sealed int
	}{
		{"fig12", []string{"gccx", "swimx", "artx", "lucasx"}, func(p experiments.Params) error {
			_, err := experiments.Fig12(p)
			return err
		}, 24, 4},
		{"perf", []string{"mcfx", "twolfx", "gccx"}, func(p experiments.Params) error {
			_, err := experiments.RunSweep("perf", p, experiments.PerfPolicies, nil)
			return err
		}, 21, 3},
	} {
		p := experiments.Params{Warmup: 2000, Measure: 6000, Runner: &harness.Runner{Parallelism: 1}}
		for _, n := range tc.kernels {
			w, ok := workload.ByName(n)
			if !ok {
				t.Fatalf("no kernel %s", n)
			}
			p.Workloads = append(p.Workloads, w)
		}
		var err error
		builds, sealed := secmem.CountSeals(func() { err = tc.run(p) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if builds != tc.builds || sealed != tc.sealed {
			t.Errorf("%s: sealed %d of %d builds, want %d of %d", tc.name, sealed, builds, tc.sealed, tc.builds)
		}
	}
}
