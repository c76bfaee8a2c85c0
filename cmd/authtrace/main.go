// Command authtrace runs a program and prints its commit-order instruction
// trace with cycle timestamps — the classic pipeline-debugging view. With
// -gap it instead prints the distribution of commit-to-commit gaps, which
// makes authentication stalls directly visible (e.g. under
// authen-then-commit, memory-bound code commits in bursts separated by
// verification waits).
//
// Usage:
//
//	authtrace -file prog.s -scheme authen-then-commit -n 100
//	authtrace -workload swimx -scheme authen-then-issue -gap
//	authtrace -validate trace.json    # check a -trace export is well-formed
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

func main() {
	var (
		file       = flag.String("file", "", "assembly source file")
		load       = flag.String("workload", "", "built-in workload name")
		schemeName = flag.String("scheme", "authen-then-commit", "control point (any policy name, e.g. authen-then-issue+obfuscation)")
		n          = flag.Int("n", 200, "trace length (committed instructions)")
		skip       = flag.Uint64("skip", 0, "skip this many commits before tracing")
		gap        = flag.Bool("gap", false, "print commit-gap histogram instead of a trace")
		maxInsts   = flag.Uint64("maxinsts", 500_000, "instruction budget")
		validate   = flag.String("validate", "", "validate a trace-event JSON file (from authsim -trace) and exit")
	)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		if err := obs.ValidateTraceJSON(data); err != nil {
			fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: well-formed trace-event JSON\n", *validate)
		return
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
			fatalf("unknown workload %q", *load)
		}
		src = w.Source
	default:
		fatalf("need -file or -workload")
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		fatalf("assemble: %v", err)
	}

	pt, err := policy.Parse(*schemeName)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := sim.DefaultConfig()
	cfg.Policy = pt
	cfg.MaxInsts = *maxInsts
	m, err := sim.NewMachine(cfg, prog)
	if err != nil {
		fatalf("%v", err)
	}

	var (
		committed uint64
		lastCycle uint64
		traced    int
		gaps      = map[uint64]uint64{}
	)
	m.Core.CommitHook = func(pc uint64, inst isa.Inst, result uint64) {
		committed++
		now := m.Core.Now()
		defer func() { lastCycle = now }()
		if committed <= *skip {
			return
		}
		if *gap {
			gaps[now-lastCycle]++
			return
		}
		if traced < *n {
			marker := ""
			if now-lastCycle > 50 {
				marker = fmt.Sprintf("   <-- %d-cycle gap", now-lastCycle)
			}
			fmt.Printf("%10d  %#08x  %-28v res=%#x%s\n", now, pc, inst, result, marker)
			traced++
		}
	}
	res, _ := m.Run()
	fmt.Printf("\nstopped: %v after %d cycles, %d instructions (IPC %.4f)\n",
		res.Reason, res.Cycles, res.Insts, res.IPC)

	if *gap {
		fmt.Println("\ncommit-gap histogram (cycles-between-commits : count):")
		var keys []uint64
		for k := range gaps {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if gaps[k] < res.Insts/1000 && k > 2 {
				continue // drop noise buckets below 0.1%
			}
			fmt.Printf("  %6d : %d\n", k, gaps[k])
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authtrace: "+format+"\n", args...)
	os.Exit(1)
}
