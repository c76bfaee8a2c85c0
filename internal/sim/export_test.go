package sim

import (
	"authpoint/internal/asm"
	"authpoint/internal/obs"
)

// Rebuild releases m and rebuilds it in place for cfg, p and extra, as
// NewMachineWithRegions does when the pool hands m back, so that tests can
// reuse a machine without depending on the pool keeping it.
func Rebuild(m *Machine, cfg Config, p *asm.Program, extra []Region) error {
	m.release()
	return m.build(cfg, p, extra)
}

// Fresh builds m from a zero Machine, as NewMachineWithRegions does when the
// pool is empty.
func Fresh(cfg Config, p *asm.Program, extra []Region) (*Machine, error) {
	m := new(Machine)
	return m, m.build(cfg, p, extra)
}

// Observer returns the sink SetObserver attached, nil if none.
func (m *Machine) Observer() obs.Sink { return m.sink }

// SlowPath reports whether DisableFastPath is in force.
func (m *Machine) SlowPath() bool { return m.slowPath }
