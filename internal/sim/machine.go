package sim

import (
	"fmt"
	"sync"

	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/dram"
	"authpoint/internal/isa"
	"authpoint/internal/mem"
	"authpoint/internal/obs"
	"authpoint/internal/pipeline"
	"authpoint/internal/policy"
	"authpoint/internal/secmem"
)

// Config is the full machine configuration.
type Config struct {
	Pipeline pipeline.Config
	Mem      MemConfig
	Sec      secmem.Config
	DRAM     dram.Config
	Bus      bus.Config

	// Policy is the authentication control point: any point of the
	// composable gate lattice (see internal/policy). The zero value is the
	// decrypt-only baseline. The gate knobs on Pipeline, Mem, and Sec are
	// overwritten from this policy when the machine is built — they are set
	// only through the policy layer.
	Policy policy.ControlPoint

	// StackB is the protected stack region size.
	StackB uint64

	// MaxInsts stops the run after this many committed instructions
	// (0 = run to HALT).
	MaxInsts uint64

	// WatchdogCycles aborts if no instruction commits for this long.
	WatchdogCycles uint64

	// TraceBus keeps the full bus trace (attack experiments need it; long
	// performance runs turn it off).
	TraceBus bool
}

// DefaultConfig returns the paper's Table 3 machine under the baseline policy.
func DefaultConfig() Config {
	return Config{
		Pipeline:       pipeline.DefaultConfig(),
		Mem:            DefaultMemConfig(),
		Sec:            secmem.DefaultConfig(),
		DRAM:           dram.Default(),
		Bus:            bus.Default(),
		StackB:         64 << 10,
		WatchdogCycles: 2_000_000,
		TraceBus:       false,
	}
}

// ControlPoint returns the effective policy: Policy, normalized (any gate
// implies Authenticate).
func (c Config) ControlPoint() policy.ControlPoint {
	return c.Policy.Normalize()
}

// applyPolicy copies the resolved control point's knobs onto the component
// configs, overwriting whatever was there: the gate knobs are owned by the
// policy layer.
func (c *Config) applyPolicy() {
	p := c.ControlPoint()
	c.Policy = p
	k := p.Knobs()
	c.Sec.Authenticate = k.Authenticate
	c.Sec.Remap = k.Remap
	c.Pipeline.GateIssue = k.GateIssue
	c.Pipeline.GateCommit = k.GateCommit
	c.Pipeline.StoreWaitAuth = k.StoreWaitAuth
	c.Mem.GateFetch = k.GateFetch
	c.Mem.UseAtAuth = k.UseAtAuth
	c.Pipeline.PACMode = PACMode(p)
}

// PACMode maps a control point to the pointer-authentication mode
// applyPolicy gives the core. Auth-failure behaviour is architectural, so a
// reference model of the same program runs under the same mode.
func PACMode(pt policy.ControlPoint) pacmac.Mode {
	k := pt.Knobs()
	switch {
	case k.PACFault:
		return pacmac.ModeFaultAuth
	case k.PAC:
		return pacmac.ModePoison
	default:
		return pacmac.ModeOff
	}
}

// StopReason says why a run ended.
type StopReason int

// Stop reasons.
const (
	StopHalt StopReason = iota
	StopMaxInsts
	StopSecurityFault // integrity verification failed
	StopArchFault     // precise architectural exception
	StopWatchdog
	StopModelError // internal model inconsistency (e.g. malformed gate dependency)
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopMaxInsts:
		return "max-insts"
	case StopSecurityFault:
		return "security-fault"
	case StopArchFault:
		return "arch-fault"
	case StopWatchdog:
		return "watchdog"
	case StopModelError:
		return "model-error"
	}
	return "?"
}

// Result summarizes a run.
type Result struct {
	Reason StopReason
	Cycles uint64
	Insts  uint64
	IPC    float64

	SecurityFault *secmem.Fault
	ArchFault     pipeline.FaultKind
	ArchFaultAddr uint64

	Core pipeline.Stats
	Sec  secmem.Stats
}

// Machine is a fully assembled secure processor system.
type Machine struct {
	Cfg    Config
	Core   *pipeline.Core
	MS     *MemSystem
	Ctrl   *secmem.Controller
	Bus    *bus.Bus
	DRAM   *dram.DRAM
	Memory *mem.Memory // external (ciphertext) memory
	Shadow *mem.Memory // architectural plaintext
	Space  *mem.AddressSpace

	Prog *asm.Program

	// uops is the µop cache of Prog's text, kept when the core's is
	// detached (DisableFastPath) so a rebuild can re-target it.
	uops *pipeline.UopCache

	// released is set by Release and cleared by the next build: a second
	// Release would hand one machine to two builds.
	released bool

	// slowPath forces the reference cycle-by-cycle interpretation (no
	// idle-cycle fast-forward, no µop cache). See DisableFastPath.
	slowPath bool

	// sink is the observer attached via SetObserver, retained so Run can
	// emit machine-level events (EvSkip fast-forward spans).
	sink obs.Sink
	// perf is the fast-path perf-counter block (nil = counting off).
	perf *obs.Perf
}

// Keys used for every machine (the secrecy of the experiment does not
// depend on them; the adversary never needs them).
var (
	encKey = []byte("authpoint-encryption-key-256bit!")
	macKey = []byte("authpoint-integrity--key-256bit!")
)

// NewMachine builds a machine and loads the program.
func NewMachine(cfg Config, p *asm.Program) (*Machine, error) {
	return NewMachineWithRegions(cfg, p, nil)
}

// machines holds released machines for later builds to reuse.
var machines sync.Pool

// maxPooledPages bounds the memory a released machine may hold and still be
// pooled: 64 pages of external and plaintext memory, 256 KB. A campaign
// program's machine holds about 25 pages; a sweep kernel's, with its
// 200 KB-4 MB image, 120 or more. A pooled machine stays live between
// cells, and pooling a memory-bound sweep's machines raised its peak RSS
// by about a tenth, to save a build that is a few percent of its cells.
const maxPooledPages = 64

// Release hands the machine back for reuse: a later NewMachine or
// NewMachineWithRegions may rebuild it in place instead of allocating a new
// one. A machine holding more than maxPooledPages is left to the collector
// instead. After Release, neither m nor anything reached through it — its
// components, the bus trace, the OUT log — may be used; values returned
// before, such as a Result, stay valid. Releasing a machine twice panics.
func (m *Machine) Release() {
	if m.released {
		panic("sim: machine released twice")
	}
	m.released = true
	m.release()
	if m.Memory.PageCount()+m.Shadow.PageCount() <= maxPooledPages {
		machines.Put(m)
	}
}

// release drops what a pooled machine need not keep alive: the program and
// any observer or perf block, which the next build replaces anyway.
func (m *Machine) release() { m.Prog, m.sink, m.perf = nil, nil, nil }

const stackBase = 0x700000

// StackBase is the base address of the protected stack region. The
// functional oracle (internal/interp) maps its stack at the same address,
// so differential state digests can cover the stack window on both sides.
const StackBase = stackBase

func (m *Machine) stackTop() uint64 { return stackBase + m.Cfg.StackB - 64 }

// load protects and installs the program image: text (p's text as bytes),
// data, and stack.
func (m *Machine) load(p *asm.Program, text []byte) error {
	lb := uint64(m.Cfg.Mem.L2LineB)
	alignUp := func(v uint64) uint64 { return (v + lb - 1) &^ (lb - 1) }
	alignDn := func(v uint64) uint64 { return v &^ (lb - 1) }

	regions := []struct {
		start uint64
		size  uint64
	}{
		{alignDn(p.TextBase), alignUp(p.TextBase+uint64(len(text))) - alignDn(p.TextBase)},
		{alignDn(p.DataBase), alignUp(p.DataBase+uint64(max(len(p.Data), 1))) - alignDn(p.DataBase)},
		{stackBase, m.Cfg.StackB},
	}
	for _, r := range regions {
		if r.size == 0 {
			continue
		}
		if err := m.Ctrl.Protect(r.start, r.size); err != nil {
			return err
		}
		m.Space.MapRange(r.start, r.size)
	}
	if err := m.Ctrl.FinishProtection(
		secmem.Segment{Addr: p.TextBase, Data: text},
		secmem.Segment{Addr: p.DataBase, Data: p.Data},
	); err != nil {
		return err
	}
	m.Shadow.Write(p.TextBase, text)
	m.Shadow.Write(p.DataBase, p.Data)
	return nil
}

// Region is an extra protected+mapped address range.
type Region struct {
	Start uint64
	Size  uint64
}

// NewMachineWithRegions is NewMachine plus extra protected regions (probe
// windows for the attack experiments).
func NewMachineWithRegions(cfg Config, p *asm.Program, extra []Region) (*Machine, error) {
	m, _ := machines.Get().(*Machine)
	if m == nil {
		m = new(Machine)
	}
	if err := m.build(cfg, p, extra); err != nil {
		return nil, err
	}
	return m, nil
}

// build makes m the machine cfg describes with p loaded and extra
// protected. A zero Machine gets every component built; a released one has
// each rebuilt in place, keeping the storage whose shape cfg keeps. Either
// way the sealed image comes from the controller's memos when it can (see
// secmem.Controller.FinishProtection).
func (m *Machine) build(cfg Config, p *asm.Program, extra []Region) error {
	cfg.applyPolicy()
	cfg.Sec.LineB = cfg.Mem.L2LineB
	*m = Machine{
		Cfg: cfg, Prog: p, uops: m.uops,
		Core: m.Core, MS: m.MS, Ctrl: m.Ctrl, Bus: m.Bus, DRAM: m.DRAM,
		Memory: m.Memory, Shadow: m.Shadow, Space: m.Space,
	}
	for _, mm := range []**mem.Memory{&m.Memory, &m.Shadow} {
		if *mm == nil {
			*mm = mem.New()
		} else {
			(*mm).Reset()
		}
	}
	if m.Space == nil {
		m.Space = mem.NewAddressSpace()
	} else {
		m.Space.Reset()
	}
	var err error
	if m.Bus == nil {
		m.Bus, err = bus.New(cfg.Bus)
	} else {
		err = m.Bus.Reset(cfg.Bus)
	}
	if err != nil {
		return err
	}
	m.Bus.SetTracing(cfg.TraceBus)
	if m.DRAM == nil {
		m.DRAM, err = dram.New(cfg.DRAM)
	} else {
		err = m.DRAM.Reset(cfg.DRAM)
	}
	if err != nil {
		return err
	}
	if m.Ctrl == nil {
		m.Ctrl, err = secmem.New(cfg.Sec, m.Memory, m.Bus, m.DRAM, encKey, macKey)
	} else {
		err = m.Ctrl.Reset(cfg.Sec, m.Memory, m.Bus, m.DRAM, encKey, macKey)
	}
	if err != nil {
		return err
	}
	// Extra regions are protected first, so that load's FinishProtection
	// seals them with the program image.
	lb := uint64(cfg.Mem.L2LineB)
	for _, r := range extra {
		start := r.Start &^ (lb - 1)
		size := (r.Size + lb - 1) &^ (lb - 1)
		if err := m.Ctrl.Protect(start, size); err != nil {
			return err
		}
		m.Space.MapRange(start, size)
	}
	text := p.TextBytes()
	if err := m.load(p, text); err != nil {
		return err
	}
	if m.MS == nil {
		m.MS, err = NewMemSystem(cfg.Mem, m.Ctrl, m.Shadow, m.Space)
	} else {
		err = m.MS.reset(cfg.Mem, m.Ctrl, m.Shadow, m.Space)
	}
	if err != nil {
		return err
	}
	m.MS.SetStoreWaitAuth(cfg.Pipeline.StoreWaitAuth)
	if m.Core == nil {
		m.Core, err = pipeline.New(cfg.Pipeline, m.MS, p.Entry)
	} else {
		err = m.Core.Reset(cfg.Pipeline, m.MS, p.Entry)
	}
	if err != nil {
		return err
	}
	m.Core.SetReg(isa.RegSP, m.stackTop())
	if m.uops == nil {
		m.uops = pipeline.NewUopCache(p.TextBase, text)
	} else {
		m.uops.Reset(p.TextBase, text)
	}
	m.Core.SetUopCache(m.uops)
	return nil
}

// DisableFastPath forces the reference execution path: cycle-by-cycle
// stepping with per-fetch decode (no idle-cycle fast-forward, no µop
// cache). The fast and slow paths are pinned cycle-identical by the
// differential tests in fastpath_test.go and the diffcheck corpus; this
// switch exists for those tests and for debugging suspected fast-path
// divergence.
func (m *Machine) DisableFastPath() {
	m.slowPath = true
	m.Core.SetUopCache(nil)
}

// SetObserver attaches an event sink to every timed component of the
// machine. Call after NewMachine (program-load crypto is untimed and
// unobserved) and before Run. A nil sink detaches nothing — attach once.
func (m *Machine) SetObserver(s obs.Sink) {
	m.sink = s
	m.Core.SetObserver(s)
	m.MS.SetObserver(s, m.Core.Now)
	m.Ctrl.SetObserver(s)
	m.Bus.SetObserver(s)
}

// EnablePerf attaches (and returns) the machine's fast-path perf-counter
// block. Counting observes the fast-path machinery without perturbing
// simulated timing; nothing is counted until this is called. Idempotent —
// repeated calls return the same block.
func (m *Machine) EnablePerf() *obs.Perf {
	if m.perf == nil {
		m.perf = &obs.Perf{}
		m.Core.SetPerf(m.perf)
	}
	return m.perf
}

// Perf returns the perf-counter block, nil unless EnablePerf was called.
func (m *Machine) Perf() *obs.Perf { return m.perf }

// Run executes until HALT, MaxInsts, a security exception, an architectural
// fault, or the watchdog fires.
//
// The loop is event-driven where it can be: per-iteration bookkeeping reads
// the cheap committed-count accessor instead of copying the whole Stats
// struct, and after any cycle in which no pipeline stage or store-buffer
// drain made progress, the clock fast-forwards to the earliest pending
// event (instruction completion, authentication gate expiry, fetch unblock,
// store drain) instead of ticking through provably idle cycles. Skipped
// cycles are credited to the same per-cycle stall counters the stepped path
// maintains, so results — cycle counts, stall stats, digests — are
// bit-identical either way (pinned by fastpath_test.go and the diffcheck
// corpus). DisableFastPath restores the reference cycle-by-cycle loop.
func (m *Machine) Run() (Result, error) {
	lastCommit := uint64(0)
	lastCommitCycle := uint64(0)
	for {
		// A pending security exception fires the moment the verification
		// engine reaches the tampered line — before any further execution.
		if f := m.Ctrl.Fault(); f != nil && m.Core.Now() >= f.Cycle {
			return m.result(StopSecurityFault), nil
		}
		m.Core.Step()
		// A model inconsistency (e.g. a malformed gate dependency handed to
		// the controller) fails this run with an error instead of tearing
		// down the process: one sweep cell dies, the worker pool survives.
		if err := m.Ctrl.Err(); err != nil {
			return m.result(StopModelError), err
		}
		committed := m.Core.Committed()
		if committed != lastCommit {
			lastCommit = committed
			lastCommitCycle = m.Core.Now()
		}
		if m.Core.Halted() {
			return m.result(StopHalt), nil
		}
		if k, _, _ := m.Core.Faulted(); k != pipeline.FaultNone {
			return m.result(StopArchFault), nil
		}
		if m.Cfg.MaxInsts > 0 && committed >= m.Cfg.MaxInsts {
			return m.result(StopMaxInsts), nil
		}
		if m.Core.Now()-lastCommitCycle > m.Cfg.WatchdogCycles {
			return m.result(StopWatchdog), fmt.Errorf("sim: watchdog: no commit for %d cycles (pc=%#x)", m.Cfg.WatchdogCycles, m.Core.PC())
		}
		if m.slowPath || m.Core.Progressed() || m.MS.TickProgressed() {
			continue
		}
		// Quiet cycle: every stage and the store buffer are provably blocked
		// until the earliest pending event. Take the min over all timed
		// components, bounded so the watchdog Step and a pending security
		// fault still land on their exact slow-path cycles, and advance the
		// clock in one jump.
		// The strict < folds mean first-wins on ties, so the bound
		// attribution below is deterministic across runs.
		now := m.Core.Now()
		next := m.Core.NextEventAt()
		bound := obs.BoundCore
		if t := m.MS.NextEventAt(now); t < next {
			next, bound = t, obs.BoundMemsys
		}
		if t := m.Bus.NextEventAt(now); t < next {
			next, bound = t, obs.BoundBus
		}
		if t := m.DRAM.NextEventAt(now); t < next {
			next, bound = t, obs.BoundDram
		}
		if t := m.Ctrl.NextEventAt(now); t < next {
			next, bound = t, obs.BoundSecmem
		}
		if wd := lastCommitCycle + m.Cfg.WatchdogCycles; wd < next {
			next, bound = wd, obs.BoundWatchdog
		}
		if next > now {
			if m.perf != nil {
				m.perf.SkipBoundCycles[bound] += next - now
			}
			if m.sink != nil {
				m.sink.Emit(obs.Event{Cycle: now, Kind: obs.EvSkip,
					Track: obs.TrackFastForward, A: next - now, B: uint64(bound)})
			}
			m.Core.SkipTo(next)
		}
	}
}

func (m *Machine) result(r StopReason) Result {
	st := m.Core.Stats()
	res := Result{
		Reason: r,
		Cycles: st.Cycles,
		Insts:  st.Committed,
		Core:   st,
		Sec:    m.Ctrl.Stats(),
	}
	if st.Cycles > 0 {
		res.IPC = float64(st.Committed) / float64(st.Cycles)
	}
	if r == StopSecurityFault {
		res.SecurityFault = m.Ctrl.Fault()
	}
	if k, _, addr := m.Core.Faulted(); k != pipeline.FaultNone {
		res.ArchFault = k
		res.ArchFaultAddr = addr
	}
	return res
}
