// Package obs is the simulator's observability layer: a cycle-stamped event
// sink wired through every timed component (pipeline, secure memory
// controller, bus, caches, crypto engine), fixed-bucket histograms and the
// mergeable metrics snapshot, and a bounded ring-buffer tracer with
// Chrome/Perfetto trace-event JSON export.
//
// The paper's argument is about *when* authentication completes relative to
// decryption and *where* that gap stalls the pipeline; aggregate counters
// cannot show either. This package captures the timeline (every auth
// request's enqueue→complete span, every decrypt-ready instant, every
// per-reason stall interval) and the distributions (auth-latency,
// decrypt→auth gap, queue occupancy) that make those claims checkable.
//
// Components hold a Sink and guard every emission with a nil check, so a
// machine with no observer attached pays only an untaken branch per event
// site (pinned by BenchmarkSimTraceOff).
package obs

// Kind classifies an event.
type Kind uint8

// Event kinds. The A/B payload fields are kind-specific; the table below is
// the contract between emitters and consumers (Hub, Tracer export).
const (
	// EvFetch..EvSquash are core pipeline events. Addr = PC.
	// EvSquash: A = number of RUU entries squashed.
	EvFetch Kind = iota
	EvDispatch
	EvIssue
	EvCommit
	EvSquash

	// EvStallBegin/EvStallEnd bracket a per-reason pipeline stall interval.
	// A = StallReason.
	EvStallBegin
	EvStallEnd

	// EvAuthRequest: a verification request entered the authentication
	// queue. Cycle = arrival (enqueue) cycle, Addr = line, A = request index
	// (1-based), B = completion cycle (the in-order engine's schedule is
	// known at enqueue in this model).
	EvAuthRequest
	// EvAuthComplete: the verification engine finished a request.
	// Cycle = completion cycle, Addr = line, A = arrival cycle,
	// B = plaintext-ready cycle (so Cycle-A is the queue latency and
	// Cycle-B the realized decrypt→auth gap).
	EvAuthComplete
	// EvAuthFail: verification failed. Cycle = flag cycle, Addr = line,
	// A = request index.
	EvAuthFail

	// EvDecryptReady: plaintext of an external fetch became available.
	// Addr = line.
	EvDecryptReady
	// EvSecFetch: an external line fetch started. Addr = line.
	EvSecFetch
	// EvWriteBack: a dirty line write-back started. Addr = line.
	EvWriteBack
	// EvFetchGateWait: an external fetch waited on an authen-then-fetch bus
	// grant. Cycle = would-be start, A = cycles waited.
	EvFetchGateWait

	// EvBusTxn: one bus transaction. Cycle = start, Addr = bus address,
	// A = bus.Kind, B = data-done cycle.
	EvBusTxn

	// EvCacheHit/EvCacheMiss: one cache lookup; Track names the cache.
	EvCacheHit
	EvCacheMiss

	// EvCryptOp: one crypto-engine line operation. Addr = line,
	// A = 0 encrypt / 1 decrypt, B = AES pad chunks.
	EvCryptOp

	// EvSkip: the fast path fast-forwarded the clock over a provably idle
	// window. Cycle = jump start, A = cycles skipped, B = SkipBound (which
	// component's NextEventAt bounded the jump). Emitted only on the fast
	// path; the reference loop ticks through the same cycles one by one.
	EvSkip
)

func (k Kind) String() string {
	switch k {
	case EvFetch:
		return "fetch"
	case EvDispatch:
		return "dispatch"
	case EvIssue:
		return "issue"
	case EvCommit:
		return "commit"
	case EvSquash:
		return "squash"
	case EvStallBegin:
		return "stall-begin"
	case EvStallEnd:
		return "stall-end"
	case EvAuthRequest:
		return "auth-request"
	case EvAuthComplete:
		return "auth-complete"
	case EvAuthFail:
		return "auth-fail"
	case EvDecryptReady:
		return "decrypt-ready"
	case EvSecFetch:
		return "sec-fetch"
	case EvWriteBack:
		return "writeback"
	case EvFetchGateWait:
		return "fetch-gate-wait"
	case EvBusTxn:
		return "bus-txn"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	case EvCryptOp:
		return "crypt-op"
	case EvSkip:
		return "fast-forward"
	}
	return "?"
}

// StallReason labels the pipeline's per-reason stall intervals — the paper's
// per-control-point cost, promoted from opaque cycle totals to labeled
// metrics.
type StallReason uint8

// Stall reasons.
const (
	StallCommitAuth StallReason = iota // authen-then-commit head waiting for verification
	StallIssueAuth                     // authen-then-issue entries held back
	StallSBFull                        // store buffer full at commit
	NumStallReasons
)

func (r StallReason) String() string {
	switch r {
	case StallCommitAuth:
		return "commit-auth"
	case StallIssueAuth:
		return "issue-auth"
	case StallSBFull:
		return "sb-full"
	}
	return "?"
}

// Track identifies the emitting component; the trace export maps each track
// to its own timeline lane.
type Track uint8

// Tracks.
const (
	TrackCore Track = iota
	TrackAuthQueue
	TrackGap // derived decrypt→auth gap spans
	TrackSecmem
	TrackBus
	TrackL1I
	TrackL1D
	TrackL2
	TrackCtrCache
	TrackTreeCache
	TrackCrypto
	TrackFastForward // fast-path skip spans and the skipped-cycles counter
	numTracks
)

func (t Track) String() string {
	switch t {
	case TrackCore:
		return "core"
	case TrackAuthQueue:
		return "auth-queue"
	case TrackGap:
		return "decrypt-auth-gap"
	case TrackSecmem:
		return "secmem"
	case TrackBus:
		return "bus"
	case TrackL1I:
		return "l1i"
	case TrackL1D:
		return "l1d"
	case TrackL2:
		return "l2"
	case TrackCtrCache:
		return "ctr-cache"
	case TrackTreeCache:
		return "tree-cache"
	case TrackCrypto:
		return "crypto"
	case TrackFastForward:
		return "fast-forward"
	}
	return "?"
}

// Event is one cycle-stamped microarchitectural event.
type Event struct {
	Cycle uint64
	Kind  Kind
	Track Track
	Addr  uint64
	A, B  uint64 // kind-specific payload (see the Kind constants)
}

// Sink consumes events. Components store a Sink and emit only when it is
// non-nil; implementations need not be safe for concurrent use — one machine
// owns one sink.
type Sink interface {
	Emit(Event)
}
