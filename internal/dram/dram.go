// Package dram implements a PC-SDRAM timing model in the style of the Gries
// DRAM model the paper integrates (§5.1): banks with open-row (page-mode)
// state, where an access's latency depends on whether it hits the open row,
// misses a closed row, or conflicts with a different open row.
//
// All external latencies are expressed in memory-bus clocks and converted to
// core cycles via the configured clock ratio (the paper's machine: 1 GHz
// core, 200 MHz bus → 5 core cycles per bus clock).
package dram

import "fmt"

// Config describes the SDRAM organization and timing (Table 3 of the paper).
type Config struct {
	Banks      int // independent banks
	RowBytes   int // bytes per row ("page") per bank
	BusClockNs int // memory bus period in ns — informational
	CorePerBus int // core cycles per memory-bus clock
	CASBus     int // CAS latency, bus clocks
	RCDBus     int // RAS-to-CAS delay, bus clocks
	RPBus      int // row precharge, bus clocks
	BusBytes   int // data bus width in bytes per bus clock
}

// Default returns the paper's Table 3 configuration.
func Default() Config {
	return Config{
		Banks:      8,
		RowBytes:   2048,
		BusClockNs: 5,
		CorePerBus: 5,
		CASBus:     20,
		RCDBus:     7,
		RPBus:      7,
		BusBytes:   8,
	}
}

// Kind classifies an access by row-buffer outcome.
type Kind int

// Row-buffer outcomes.
const (
	RowHit      Kind = iota // open row matches
	RowEmpty                // bank precharged, row closed
	RowConflict             // different row open
)

func (k Kind) String() string {
	switch k {
	case RowHit:
		return "row-hit"
	case RowEmpty:
		return "row-empty"
	case RowConflict:
		return "row-conflict"
	}
	return "?"
}

// Stats counts accesses by outcome.
type Stats struct {
	Hits      uint64
	Empties   uint64
	Conflicts uint64
	// BusyCycles accumulates core cycles requests spent queued behind
	// earlier accesses to the same bank.
	BusyCycles uint64
}

type bank struct {
	openRow  int64  // -1 = precharged
	cmdReady uint64 // when the bank can accept its next row/column command
}

// DRAM is the memory-device timing model. Column commands pipeline within a
// bank (a new CAS can issue while the previous burst streams out), banks
// operate independently, and all bursts share one data bus.
type DRAM struct {
	cfg     Config
	banks   []bank
	busFree uint64 // shared DRAM data bus availability
	stats   Stats
}

// New validates cfg and builds the model: Reset on a zero DRAM.
func New(cfg Config) (*DRAM, error) {
	d := new(DRAM)
	if err := d.Reset(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset returns the model to its power-on state under cfg: every bank
// precharged and idle, the data bus free and the counters zeroed. It keeps
// the bank array when the bank count is unchanged. On an error the model is
// unusable.
func (d *DRAM) Reset(cfg Config) error {
	if cfg.Banks <= 0 || cfg.RowBytes <= 0 || cfg.CorePerBus <= 0 || cfg.BusBytes <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", cfg)
	}
	if cfg.CASBus < 0 || cfg.RCDBus < 0 || cfg.RPBus < 0 {
		return fmt.Errorf("dram: negative timing %+v", cfg)
	}
	if len(d.banks) != cfg.Banks {
		d.banks = make([]bank, cfg.Banks)
	}
	for i := range d.banks {
		d.banks[i] = bank{openRow: -1}
	}
	d.cfg, d.busFree, d.stats = cfg, 0, Stats{}
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	// Row-interleaved bank mapping: consecutive rows rotate across banks,
	// giving streaming workloads bank-level parallelism.
	rowGlobal := addr / uint64(d.cfg.RowBytes)
	return int(rowGlobal % uint64(d.cfg.Banks)), int64(rowGlobal / uint64(d.cfg.Banks))
}

// Access performs one burst read or write of n bytes at addr starting no
// earlier than core cycle now. It returns the cycle at which the first data
// beat is on the data bus (firstData) and the cycle the burst completes
// (done).
func (d *DRAM) Access(now uint64, addr uint64, n int) (firstData, done uint64) {
	bi, row := d.mapAddr(addr)
	b := &d.banks[bi]
	start := now
	if b.cmdReady > start {
		d.stats.BusyCycles += b.cmdReady - start
		start = b.cmdReady
	}
	cpb := uint64(d.cfg.CorePerBus)
	var rowLat uint64
	switch {
	case b.openRow == row:
		d.stats.Hits++
	case b.openRow == -1:
		d.stats.Empties++
		rowLat = uint64(d.cfg.RCDBus) * cpb
	default:
		d.stats.Conflicts++
		rowLat = uint64(d.cfg.RPBus+d.cfg.RCDBus) * cpb
	}
	b.openRow = row
	casIssue := start + rowLat
	beats := (n + d.cfg.BusBytes - 1) / d.cfg.BusBytes
	if beats < 1 {
		beats = 1
	}
	burst := uint64(beats) * cpb
	dataAt := casIssue + uint64(d.cfg.CASBus)*cpb
	firstData = dataAt
	if d.busFree > firstData {
		firstData = d.busFree // wait for the shared data bus
	}
	done = firstData + burst
	d.busFree = done
	// Column-command pipelining: the bank is busy only until the burst has
	// streamed out of its sense amps; the next CAS can then issue while the
	// data bus carries the tail of this burst.
	b.cmdReady = casIssue + burst
	return firstData, done
}

// NextEventAt supports the idle-cycle fast-forward: DRAM is lazily timed
// (accesses are fully scheduled at request time), so its only "event" is
// the shared data-bus occupancy horizon. Completion cycles that matter are
// already folded into the requesters' ready timestamps; the returned bound
// is defensive. A horizon at or before now imposes no bound.
func (d *DRAM) NextEventAt(now uint64) uint64 {
	if d.busFree > now {
		return d.busFree
	}
	return ^uint64(0)
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }
