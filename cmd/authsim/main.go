// Command authsim runs one program or workload on the secure processor
// model and reports timing, cache, and authentication statistics.
//
// Usage:
//
//	authsim -workload mcfx -scheme authen-then-commit -maxinsts 200000
//	authsim -file prog.s -scheme authen-then-issue
//	authsim -workload swimx -scheme all            # compare all registered policies
//	authsim -workload mcfx -scheme authen-then-write+fetch   # any lattice point
package main

import (
	"flag"
	"fmt"
	"os"

	"authpoint/internal/asm"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/report"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

func main() {
	var (
		file     = flag.String("file", "", "assembly source file to run")
		load     = flag.String("workload", "", "built-in workload name (e.g. mcfx)")
		scheme   = flag.String("scheme", "baseline", "control-point name (any registered or composed policy, e.g. authen-then-write+fetch) or 'all'")
		maxInsts = flag.Uint64("maxinsts", 0, "stop after N committed instructions (0 = run to halt)")
		l2KB     = flag.Int("l2kb", 256, "L2 size in KB")
		ruu      = flag.Int("ruu", 128, "RUU entries")
		tree     = flag.Bool("tree", false, "MAC-tree authentication")
		drain    = flag.Bool("drain", false, "then-fetch: drain-the-queue variant")
		prefetch = flag.Bool("prefetch", false, "enable next-line L2 prefetching")
		macUnits = flag.Int("macunits", 1, "parallel verification engines")
		cbc      = flag.Bool("cbc", false, "CBC-mode encryption timing (Table 1 comparison)")
		mshrs    = flag.Int("mshrs", 0, "bound outstanding misses (0 = unbounded)")
		verbose  = flag.Bool("v", false, "print cache/DRAM/auth statistics")
		trace    = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (single scheme only)")
		traceCap = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")
		metrics  = flag.Bool("metrics", false, "print auth-latency/gap/occupancy histograms and the run's counters")
	)
	flag.Parse()
	if *trace != "" && *scheme == "all" {
		fatalf("-trace needs a single -scheme, not 'all'")
	}

	var src string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatalf("%v", err)
		}
		src = string(b)
	case *load != "":
		w, ok := workload.ByName(*load)
		if !ok {
			fatalf("unknown workload %q; try one of %v", *load, names())
		}
		src = w.Source
		if *maxInsts == 0 {
			*maxInsts = w.InitInsts + 150_000
		}
	default:
		fatalf("need -file or -workload")
	}

	prog, err := asm.Assemble(src)
	if err != nil {
		fatalf("assemble: %v", err)
	}

	var policies []policy.ControlPoint
	if *scheme == "all" {
		for _, e := range policy.Registered() {
			policies = append(policies, e.Point)
		}
	} else {
		pt, err := policy.Parse(*scheme)
		if err != nil {
			fatalf("%v", err)
		}
		policies = append(policies, pt)
	}

	fmt.Printf("%-32s %10s %12s %8s %12s\n", "policy", "IPC", "cycles", "insts", "stop")
	for _, s := range policies {
		cfg := sim.DefaultConfig()
		cfg.Policy = s
		cfg.MaxInsts = *maxInsts
		cfg.Mem.L2B = *l2KB << 10
		if *l2KB >= 1024 {
			cfg.Mem.L2Lat = 8
		}
		cfg.Pipeline.RUUSize = *ruu
		cfg.Pipeline.LSQSize = *ruu / 2
		cfg.Sec.UseTree = *tree
		cfg.Mem.FetchDrain = *drain
		cfg.Mem.NextLinePrefetch = *prefetch
		cfg.Sec.MacUnits = *macUnits
		cfg.Mem.MSHRs = *mshrs
		if *cbc {
			cfg.Sec.Mode = secmem.ModeCBC
		}
		m, err := sim.NewMachine(cfg, prog)
		if err != nil {
			fatalf("%v", err)
		}
		var hub *obs.Hub
		if *trace != "" || *metrics {
			var tr *obs.Tracer
			if *trace != "" {
				tr = obs.NewTracer(*traceCap)
			}
			hub = obs.NewHub(tr, *metrics)
			m.SetObserver(hub)
			if *metrics {
				m.EnablePerf()
			}
		}
		res, err := m.Run()
		if err != nil {
			fatalf("%v: %v", s, err)
		}
		fmt.Printf("%-32s %10.4f %12d %8d %12v\n", s, res.IPC, res.Cycles, res.Insts, res.Reason)
		if *verbose {
			report.Write(os.Stdout, m, res)
		}
		if *metrics {
			report.WriteMetrics(os.Stdout, m.Metrics(hub, nil))
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatalf("%v", err)
			}
			if err := hub.Tracer().WriteJSON(f); err != nil {
				fatalf("trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("trace: %v", err)
			}
			if d := hub.Tracer().Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "authsim: trace ring dropped %d oldest events (raise -trace-cap)\n", d)
			}
			fmt.Printf("trace: %d events -> %s (load in ui.perfetto.dev)\n",
				hub.Tracer().Total()-hub.Tracer().Dropped(), *trace)
		}
	}
}

func names() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authsim: "+format+"\n", args...)
	os.Exit(1)
}
