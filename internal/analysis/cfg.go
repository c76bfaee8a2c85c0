// Package analysis implements static leakage-contract checking for
// assembled authpoint programs.
//
// The paper's memory-fetch side channel (Section 3) exists because an
// instruction's observable effects — the plaintext fetch addresses it puts
// on the front-side bus, directly (data fetches) or through control flow
// (instruction fetches) — can depend on values that are secret, or that
// arrived from external memory and have not yet been authenticated. The
// dynamic experiments in internal/attack demonstrate the channel; this
// package predicts it: a dataflow pass over the ISA-level program reports
// every instruction whose observable address or control flow is tainted,
// i.e. exactly the sites an authentication control point must gate.
//
// The pipeline is classical: a control-flow graph over the decoded text
// section (cfg.go), a worklist dataflow fixpoint over a taint lattice with
// constant propagation (taint.go), and a checker that turns tainted
// observables into findings (analysis.go). Everything is stdlib-only and
// operates on *asm.Program, so the same pass runs inside tests, the
// cmd/authlint CLI, and differential comparisons against dynamic bus traces.
package analysis

import (
	"fmt"
	"sort"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
)

// Block is a basic block: a maximal straight-line run of instructions with
// control entering only at the top and leaving only at the bottom.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Start and End delimit the block's instructions as half-open text
	// indices [Start, End).
	Start, End int
	// Succs lists successor block indices, deduplicated, ascending.
	Succs []int
	// Indirect marks a block ending in an unresolvable indirect jump (a
	// JALR that is not a conventional return): its successors conservatively
	// include every block.
	Indirect bool
}

// CFG is the control-flow graph of a program's text section.
type CFG struct {
	Prog *asm.Program
	// Insts is the decoded text section.
	Insts []isa.Inst
	// Blocks in ascending Start order.
	Blocks []*Block
	// Entry is the index of the entry block.
	Entry int
	// Reachable[b] reports whether block b is reachable from the entry.
	Reachable []bool

	blockOf []int // instruction index -> block index
}

// PCFor returns the address of the instruction at text index i.
func (g *CFG) PCFor(i int) uint64 {
	return g.Prog.TextBase + uint64(i)*isa.InstBytes
}

// IndexFor returns the text index of address pc, or -1 if pc is outside the
// text section or misaligned.
func (g *CFG) IndexFor(pc uint64) int {
	if pc < g.Prog.TextBase || (pc-g.Prog.TextBase)%isa.InstBytes != 0 {
		return -1
	}
	i := int((pc - g.Prog.TextBase) / isa.InstBytes)
	if i >= len(g.Insts) {
		return -1
	}
	return i
}

// branchTargetIndex resolves a pc-relative control transfer at index i to a
// text index, or -1 when the target leaves the text section (it would fault
// at fetch).
func branchTargetIndex(i int, imm int32, n int) int {
	t := i + 1 + int(imm)
	if t < 0 || t >= n {
		return -1
	}
	return t
}

// isReturn reports the conventional return idiom: jalr r0, ra, imm.
func isReturn(inst isa.Inst) bool {
	return inst.Op == isa.OpJALR && inst.Rd == isa.RegZero && inst.Rs1 == isa.RegRA
}

// endsBlock reports whether control cannot fall through past inst:
// taken-or-not branches do fall through; jumps, halt, and invalid opcodes
// (which fault) do not.
func endsBlock(inst isa.Inst) bool {
	switch inst.Op.Class() {
	case isa.ClassJump, isa.ClassHalt:
		return true
	}
	return !inst.Op.Valid()
}

// BuildCFG decodes the program text and constructs its basic-block graph.
//
// Conservatism rules: a JAL is treated as a direct jump to its target; the
// instruction after a linking JAL (rd = ra) is recorded as a return site,
// and every conventional return (jalr r0, ra) gets all return sites as
// successors. Any other JALR is an unresolvable indirect jump whose
// successors are all blocks. Branch or jump targets outside the text
// section, HALT, and invalid opcodes end a path.
func BuildCFG(p *asm.Program) (*CFG, error) {
	n := len(p.Text)
	if n == 0 {
		return nil, fmt.Errorf("analysis: empty text section")
	}
	g := &CFG{Prog: p, Insts: make([]isa.Inst, n), blockOf: make([]int, n)}
	for i, w := range p.Text {
		g.Insts[i] = isa.Decode(w)
	}
	entryIdx := g.IndexFor(p.Entry)
	if entryIdx < 0 {
		return nil, fmt.Errorf("analysis: entry %#x outside text [%#x,%#x)", p.Entry, p.TextBase, p.TextBase+uint64(n*isa.InstBytes))
	}

	// Pass 1: leaders and return sites.
	leader := make([]bool, n)
	leader[0] = true
	leader[entryIdx] = true
	var retSites []int
	for i, inst := range g.Insts {
		switch {
		case inst.Op.Class() == isa.ClassBranch:
			if t := branchTargetIndex(i, inst.Imm, n); t >= 0 {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		case inst.Op == isa.OpJAL:
			if t := branchTargetIndex(i, inst.Imm, n); t >= 0 {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
				if inst.Rd == isa.RegRA {
					retSites = append(retSites, i+1)
				}
			}
		case endsBlock(inst):
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	// Pass 2: carve blocks.
	for i := 0; i < n; i++ {
		if !leader[i] {
			continue
		}
		end := i + 1
		for end < n && !leader[end] {
			end++
		}
		b := &Block{Index: len(g.Blocks), Start: i, End: end}
		g.Blocks = append(g.Blocks, b)
		for j := i; j < end; j++ {
			g.blockOf[j] = b.Index
		}
	}
	g.Entry = g.blockOf[entryIdx]

	// Pass 3: successors.
	for _, b := range g.Blocks {
		last := g.Insts[b.End-1]
		succs := map[int]bool{}
		switch {
		case last.Op.Class() == isa.ClassBranch:
			if t := branchTargetIndex(b.End-1, last.Imm, n); t >= 0 {
				succs[g.blockOf[t]] = true
			}
			if b.End < n {
				succs[g.blockOf[b.End]] = true
			}
		case last.Op == isa.OpJAL:
			if t := branchTargetIndex(b.End-1, last.Imm, n); t >= 0 {
				succs[g.blockOf[t]] = true
			}
		case isReturn(last):
			for _, r := range retSites {
				succs[g.blockOf[r]] = true
			}
		case last.Op == isa.OpJALR:
			b.Indirect = true
			for j := range g.Blocks {
				succs[j] = true
			}
		case last.Op.Class() == isa.ClassHalt || !last.Op.Valid():
			// Terminal.
		default:
			if b.End < n {
				succs[g.blockOf[b.End]] = true
			}
		}
		b.Succs = make([]int, 0, len(succs))
		for s := range succs {
			b.Succs = append(b.Succs, s)
		}
		sort.Ints(b.Succs)
	}

	// Pass 4: reachability.
	g.Reachable = make([]bool, len(g.Blocks))
	work := []int{g.Entry}
	g.Reachable[g.Entry] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Blocks[bi].Succs {
			if !g.Reachable[s] {
				g.Reachable[s] = true
				work = append(work, s)
			}
		}
	}
	return g, nil
}
