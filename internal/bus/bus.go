// Package bus models the front-side bus between the secure processor and
// the memory device — and, critically for the paper, the *address trace*
// visible on it. Everything that crosses this bus is what an adversary with
// probes on the DIMM interface can see: fetch addresses in plaintext,
// ciphertext data, and MACs. The attack package reads the trace recorded
// here; the authentication-then-fetch policy exists to control what reaches
// it.
package bus

import (
	"fmt"

	"authpoint/internal/obs"
)

// Kind labels a bus transaction.
type Kind int

// Transaction kinds.
const (
	ReadLine  Kind = iota // cache-line fetch (the disclosure channel)
	WriteLine             // write-back
	ReadMeta              // counter / MAC / tree-node fetch
	WriteMeta             // metadata write-back
)

func (k Kind) String() string {
	switch k {
	case ReadLine:
		return "read"
	case WriteLine:
		return "write"
	case ReadMeta:
		return "read-meta"
	case WriteMeta:
		return "write-meta"
	}
	return "?"
}

// Event is one observed bus transaction: the adversary's view.
type Event struct {
	Cycle uint64
	Addr  uint64
	Kind  Kind
	Bytes int
}

// Config describes the bus.
type Config struct {
	CorePerBus int // core cycles per bus clock
	BusBytes   int // bytes transferred per bus clock
	AddrBeats  int // bus clocks consumed by the address/command phase
}

// Default returns the paper's 200MHz, 8-byte bus (1GHz core).
func Default() Config { return Config{CorePerBus: 5, BusBytes: 8, AddrBeats: 1} }

// Bus is the front-side bus model: a single shared resource with an
// occupancy horizon, plus the externally visible transaction trace.
type Bus struct {
	cfg      Config
	nextFree uint64
	trace    []Event
	tracing  bool
	busy     uint64 // total core cycles of occupancy (utilization stat)
	sink     obs.Sink
}

// SetObserver attaches an event sink (independent of the adversary trace,
// which SetTracing controls).
func (b *Bus) SetObserver(s obs.Sink) { b.sink = s }

// New validates cfg and builds the bus: Reset on a zero Bus.
func New(cfg Config) (*Bus, error) {
	b := new(Bus)
	if err := b.Reset(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset returns the bus to its initial state under cfg: free, idle, tracing
// on with an empty trace, and no observer. The trace keeps its storage, so
// a slice Trace returned before the Reset must no longer be read. On an
// error the bus is unusable.
func (b *Bus) Reset(cfg Config) error {
	if cfg.CorePerBus <= 0 || cfg.BusBytes <= 0 || cfg.AddrBeats <= 0 {
		return fmt.Errorf("bus: non-positive config %+v", cfg)
	}
	*b = Bus{cfg: cfg, trace: b.trace[:0], tracing: true}
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Bus {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// SetTracing enables or disables trace capture (long performance runs turn
// it off to bound memory).
func (b *Bus) SetTracing(on bool) { b.tracing = on }

// Transact issues a transaction at core cycle `now` (or when the bus frees
// up, whichever is later). It returns the cycle the address phase completes
// — the instant the address becomes visible to the adversary — and the cycle
// the data transfer completes.
func (b *Bus) Transact(now uint64, kind Kind, addr uint64, nbytes int) (addrDone, dataDone uint64) {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	cpb := uint64(b.cfg.CorePerBus)
	addrDone = start + uint64(b.cfg.AddrBeats)*cpb
	beats := (nbytes + b.cfg.BusBytes - 1) / b.cfg.BusBytes
	dataDone = addrDone + uint64(beats)*cpb
	b.busy += dataDone - start
	b.nextFree = dataDone
	if b.tracing {
		b.trace = append(b.trace, Event{Cycle: addrDone, Addr: addr, Kind: kind, Bytes: nbytes})
	}
	if b.sink != nil {
		b.sink.Emit(obs.Event{Cycle: start, Kind: obs.EvBusTxn, Track: obs.TrackBus,
			Addr: addr, A: uint64(kind), B: dataDone})
	}
	return addrDone, dataDone
}

// Trace returns the recorded transactions. The returned slice is the live
// backing array; callers must not mutate it.
func (b *Bus) Trace() []Event { return b.trace }

// ReadAddresses returns the addresses of all ReadLine transactions, in
// order — the paper's memory-fetch side channel distilled to what the
// exploits consume.
func (b *Bus) ReadAddresses() []uint64 {
	var out []uint64
	for _, e := range b.trace {
		if e.Kind == ReadLine {
			out = append(out, e.Addr)
		}
	}
	return out
}

// ClearTrace discards the trace (e.g. after warmup).
func (b *Bus) ClearTrace() { b.trace = nil }

// BusyCycles returns total core cycles of bus occupancy.
func (b *Bus) BusyCycles() uint64 { return b.busy }

// NextFree returns the earliest cycle a new transaction could start.
func (b *Bus) NextFree() uint64 { return b.nextFree }

// NextEventAt supports the idle-cycle fast-forward: the bus is lazily timed
// (transactions are fully scheduled at request time), so its only "event"
// is its occupancy horizon. Completion cycles that matter to the pipeline
// are already folded into the memory system's ready/done timestamps; the
// returned bound is defensive. A horizon at or before now imposes no bound.
func (b *Bus) NextEventAt(now uint64) uint64 {
	if b.nextFree > now {
		return b.nextFree
	}
	return ^uint64(0)
}
