package experiments

import (
	"fmt"
	"io"

	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// Table1Row is one memory-protection scheme's latency decomposition.
type Table1Row struct {
	Scheme     string
	DecryptLat uint64 // cycles from fetch issue to usable plaintext
	AuthLat    uint64 // cycles from fetch issue to verified
	Gap        uint64 // AuthLat - DecryptLat: the disassociation window
}

// Table1 instantiates the paper's Table 1 with the model's concrete timing:
// [counter mode + HMAC] against [CBC + CBC-MAC] for one line fetch with the
// Table 3 memory system. The counter-mode row is additionally *measured* by
// driving a fetch through the secure memory controller; the CBC rows follow
// the paper's closed forms (fetch + (n+1)·decrypt for chunk n, fetch +
// N·decrypt for the MAC).
func Table1(cfg sim.Config) ([]Table1Row, error) {
	// Representative memory fetch latency: row-empty access plus the line
	// burst at the Table 3 timings.
	d := cfg.DRAM
	cpb := uint64(d.CorePerBus)
	beats := uint64((cfg.Mem.L2LineB + cfg.Sec.MacB + d.BusBytes - 1) / d.BusBytes)
	fetch := uint64(d.RCDBus+d.CASBus)*cpb + beats*cpb + uint64(cfg.Bus.AddrBeats)*cpb

	dec := uint64(cfg.Sec.DecryptLat)
	mac := uint64(cfg.Sec.MacLat)
	n := uint64(cfg.Mem.L2LineB / 16) // 128-bit chunks per line

	ctrDecrypt := fetch
	if dec > fetch {
		ctrDecrypt = dec // MAX(memory fetch latency, decryption latency)
	}
	ctrAuth := fetch + mac

	cbcDecryptFirst := fetch + dec // first chunk: fetch + 1 cipher op
	cbcDecryptLast := fetch + dec*n
	cbcAuth := fetch + dec*n

	rows := []Table1Row{
		{"counter mode + HMAC (analytic)", ctrDecrypt, ctrAuth, ctrAuth - ctrDecrypt},
		{"CBC + CBC-MAC, first chunk", cbcDecryptFirst, cbcAuth, cbcAuth - cbcDecryptFirst},
		{fmt.Sprintf("CBC + CBC-MAC, chunk N=%d", n), cbcDecryptLast, cbcAuth, cbcAuth - cbcDecryptLast},
	}

	// Measured counter-mode row: one cold fetch through the controller.
	p, err := asm.Assemble("_start: halt")
	if err != nil {
		return nil, err
	}
	mcfg := cfg
	mcfg.Policy = policy.ThenCommit
	m, err := sim.NewMachine(mcfg, p)
	if err != nil {
		return nil, err
	}
	res, err := m.Ctrl.Fetch(0, p.DataBase&^uint64(cfg.Mem.L2LineB-1), 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Scheme:     "counter mode + HMAC (measured)",
		DecryptLat: res.PlainReady,
		AuthLat:    res.AuthDone,
		Gap:        res.AuthDone - res.PlainReady,
	})
	return rows, nil
}

// RenderTable1 prints the latency-gap table.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: latency gap between decryption and integrity verification (core cycles @1GHz)")
	fmt.Fprintf(w, "%-34s %10s %10s %8s\n", "scheme", "decrypt", "auth", "gap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %10d %10d %8d\n", r.Scheme, r.DecryptLat, r.AuthLat, r.Gap)
	}
}

// RenderTable3 prints the processor model parameters in the paper's layout.
func RenderTable3(w io.Writer, cfg sim.Config) {
	p := func(k, v string) { fmt.Fprintf(w, "  %-26s %s\n", k, v) }
	fmt.Fprintln(w, "Table 3: processor model parameters")
	p("Frequency", "1.0 GHz (1 cycle = 1 ns)")
	p("Fetch/Decode width", fmt.Sprint(cfg.Pipeline.FetchWidth))
	p("Issue/Commit width", fmt.Sprintf("%d/%d", cfg.Pipeline.IssueWidth, cfg.Pipeline.CommitWidth))
	p("L1 I-Cache", fmt.Sprintf("%d-way, %dKB, %dB line", cfg.Mem.L1IWays, cfg.Mem.L1IB>>10, cfg.Mem.L1ILineB))
	p("L1 D-Cache", fmt.Sprintf("%d-way, %dKB, %dB line", cfg.Mem.L1DWays, cfg.Mem.L1DB>>10, cfg.Mem.L1DLineB))
	p("L2 Cache", fmt.Sprintf("%d-way, unified, %dB line, write-back, %dKB", cfg.Mem.L2Ways, cfg.Mem.L2LineB, cfg.Mem.L2B>>10))
	p("L1 latency", fmt.Sprintf("%d cycle", cfg.Mem.L1Lat))
	p("L2 latency", fmt.Sprintf("%d cycles", cfg.Mem.L2Lat))
	p("I-TLB / D-TLB", fmt.Sprintf("%d-way, %d/%d entries, %d-cycle miss", cfg.Mem.TLBWays, cfg.Mem.ITLBEntries, cfg.Mem.DTLBEntries, cfg.Mem.TLBMissPenalty))
	p("RUU / LSQ", fmt.Sprintf("%d / %d entries", cfg.Pipeline.RUUSize, cfg.Pipeline.LSQSize))
	p("Memory bus", fmt.Sprintf("%dMHz, %dB wide", 1000/cfg.Bus.CorePerBus, cfg.Bus.BusBytes))
	p("CAS latency", fmt.Sprintf("%d mem bus clocks", cfg.DRAM.CASBus))
	p("Precharge (RP)", fmt.Sprintf("%d mem bus clocks", cfg.DRAM.RPBus))
	p("RAS-to-CAS (RCD)", fmt.Sprintf("%d mem bus clocks", cfg.DRAM.RCDBus))
	p("DRAM banks / row", fmt.Sprintf("%d banks, %dB rows", cfg.DRAM.Banks, cfg.DRAM.RowBytes))
	p("Decryption latency", fmt.Sprintf("%dns (256-bit Rijndael)", cfg.Sec.DecryptLat))
	p("MAC latency", fmt.Sprintf("%dns (SHA-256 HMAC, %d-bit truncated)", cfg.Sec.MacLat, cfg.Sec.MacB*8))
	p("Counter cache", fmt.Sprintf("%dKB, %d-way, prediction=%v", cfg.Sec.CtrCacheB>>10, cfg.Sec.CtrCacheWays, cfg.Sec.CtrPredict))
	p("Hash-tree cache", fmt.Sprintf("%dKB", cfg.Sec.TreeCacheB>>10))
	p("Re-map cache", fmt.Sprintf("%dKB, %d-way", cfg.Sec.RemapCacheB>>10, cfg.Sec.RemapCacheWays))
}

// Fig6Result captures the Figure 6 timeline: two data-dependent external
// fetches under authen-then-issue vs authen-then-fetch.
type Fig6Result struct {
	Policy       policy.ControlPoint
	Fetch1Addr   uint64
	Fetch1Cycle  uint64 // address of the first fetch on the bus
	Fetch2Addr   uint64
	Fetch2Cycle  uint64 // address of the dependent fetch on the bus
	TotalCycles  uint64
	SecondMinus1 uint64
}

// Fig6 reproduces the Figure 6 comparison: a pointer dereference whose
// second fetch depends on the first fetch's data. Under authen-then-issue
// the dependent address generation waits for verification of the first
// line; under authen-then-fetch only the bus grant waits — and only for
// requests already in the queue — so the second fetch issues earlier.
func Fig6() ([]Fig6Result, error) {
	src := `
	_start:
		la  r1, p0
		ld  r2, 0(r1)        ; fetch 1: pointer line
		ld  r3, 0(r2)        ; fetch 2: depends on fetch 1's data
		halt
	.data
	target: .word 42
	.space 8120
	p0:     .word target
	`
	var out []Fig6Result
	for _, pt := range []policy.ControlPoint{policy.ThenIssue, policy.ThenFetch} {
		p, err := asm.Assemble(src)
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig()
		cfg.Policy = pt
		cfg.TraceBus = true
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, err
		}
		r := Fig6Result{Policy: pt, TotalCycles: res.Cycles}
		p0Line := m.Prog.Symbols["p0"] &^ 63
		tgtLine := m.Prog.Symbols["target"] &^ 63
		for _, e := range m.Bus.Trace() {
			if e.Kind != bus.ReadLine {
				continue
			}
			switch e.Addr {
			case p0Line:
				r.Fetch1Addr, r.Fetch1Cycle = e.Addr, e.Cycle
			case tgtLine:
				r.Fetch2Addr, r.Fetch2Cycle = e.Addr, e.Cycle
			}
		}
		r.SecondMinus1 = r.Fetch2Cycle - r.Fetch1Cycle
		out = append(out, r)
	}
	return out, nil
}

// RenderFig6 prints the dependent-fetch timeline.
func RenderFig6(w io.Writer, rows []Fig6Result) {
	fmt.Fprintln(w, "Figure 6: dependent external fetches — authen-then-fetch vs authen-then-issue")
	fmt.Fprintf(w, "%-20s %14s %14s %16s %12s\n", "policy", "fetch1@cycle", "fetch2@cycle", "fetch2-fetch1", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %14d %14d %16d %12d\n", r.Policy, r.Fetch1Cycle, r.Fetch2Cycle, r.SecondMinus1, r.TotalCycles)
	}
	fmt.Fprintln(w, "(then-fetch grants the dependent fetch earlier: it stalls only on already-queued")
	fmt.Fprintln(w, " verification requests, not on verification of its own address operand)")
}
