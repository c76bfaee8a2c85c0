package sim

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/workload"
)

// progSnapshot deep-copies every field of a Program that a machine could
// conceivably write through.
type progSnapshot struct {
	textBase, dataBase, entry uint64
	text                      []uint32
	data                      []byte
	textLines                 []int
	symbols                   map[string]uint64
}

func snapshotProg(p *asm.Program) progSnapshot {
	return progSnapshot{
		textBase: p.TextBase, dataBase: p.DataBase, entry: p.Entry,
		text:      slices.Clone(p.Text),
		data:      slices.Clone(p.Data),
		textLines: slices.Clone(p.TextLines),
		symbols:   maps.Clone(p.Symbols),
	}
}

func (s progSnapshot) equal(p *asm.Program) bool {
	return s.textBase == p.TextBase && s.dataBase == p.DataBase && s.entry == p.Entry &&
		slices.Equal(s.text, p.Text) &&
		slices.Equal(s.data, p.Data) &&
		slices.Equal(s.textLines, p.TextLines) &&
		maps.Equal(s.symbols, p.Symbols)
}

// TestProgramImmutable pins the contract the parallel sweep engine's
// assembled-image cache depends on: NewMachine copies the program into each
// machine's own memories, and running the machine — including a
// store-heavy workload that dirties its data section — never writes back
// through the shared *asm.Program.
func TestProgramImmutable(t *testing.T) {
	w, ok := workload.ByName("twolfx") // read-modify-write kernel: dirty lines, writebacks
	if !ok {
		t.Fatal("missing workload")
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotProg(p)

	var wg sync.WaitGroup
	for _, pt := range []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusObfuscation} {
		wg.Add(1)
		go func(pt policy.ControlPoint) {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Policy = pt
			cfg.MaxInsts = 8_000
			m, err := NewMachine(cfg, p)
			if err != nil {
				t.Errorf("%v: %v", pt, err)
				return
			}
			res, err := m.Run()
			if err != nil {
				t.Errorf("%v: %v", pt, err)
				return
			}
			if res.Reason != StopMaxInsts {
				t.Errorf("%v: stopped with %v", pt, res.Reason)
			}
			if res.Sec.Writebacks == 0 {
				t.Errorf("%v: workload produced no external writebacks; test lost its teeth", pt)
			}
		}(pt)
	}
	wg.Wait()

	if !snap.equal(p) {
		t.Fatal("running machines mutated the shared *asm.Program")
	}
}
