package pipeline

// InstFetch is the result of fetching one instruction word.
type InstFetch struct {
	Word     uint32
	Ready    uint64 // cycle the bytes are available to decode
	AuthDone uint64 // cycle the I-line's verification completes (0 = none)
	Fault    bool   // instruction address not mapped
}

// DataRead is the result of a timed data load.
type DataRead struct {
	Raw      uint64 // raw little-endian loaded bytes (zero-extended)
	Ready    uint64 // cycle the value is usable by dependents
	AuthDone uint64 // cycle the D-line's verification completes (0 = none)
}

// MemPort is the pipeline's window onto the memory system (caches, secure
// memory controller, TLBs, store buffer). The sim package implements it.
type MemPort interface {
	// FetchInst fetches the instruction word at addr starting at cycle now.
	// fetchTag is the LastRequest value associated with the control
	// transfer that steered fetch here; under authen-then-fetch an external
	// fetch may not reach the bus until that authentication request has
	// completed (Section 4.2.4's LastRequest-register variant).
	FetchInst(now uint64, addr uint64, fetchTag uint64) InstFetch

	// ReadData performs a timed load of size bytes at addr, which ValidAddr
	// has accepted. fetchTag is the LastRequest value captured when the
	// load issued; authen-then-fetch holds the external fetch until it
	// completes.
	ReadData(now uint64, addr uint64, size int, fetchTag uint64) DataRead

	// CommitStore retires a store into the post-commit store buffer,
	// updating architectural memory immediately. authTag is the
	// LastRequest value captured when the store issued (authen-then-write
	// holds the external write until that request verifies). It reports
	// false when the store buffer is full (commit must stall).
	CommitStore(now uint64, addr uint64, val uint64, size int, authTag uint64) bool

	// Tick lets the memory system drain its store buffer at cycle now.
	Tick(now uint64)

	// ValidAddr reports whether a data address is mapped (loads to invalid
	// addresses fault instead of reaching the bus).
	ValidAddr(addr uint64) bool

	// LogFault records an architecturally-taken translation fault (the
	// fault-address disclosure channel of Section 3.3).
	LogFault(addr uint64)

	// LastAuthRequest mirrors the controller's LastRequest register as of
	// the given cycle: the newest verification request whose data had
	// arrived by then (outstanding fetches are not counted).
	LastAuthRequest(now uint64) uint64
}

// OutEvent is an OUT instruction retired to an I/O port.
type OutEvent struct {
	Cycle uint64
	Port  uint32
	Val   uint64
}
