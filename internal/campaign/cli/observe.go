package cli

import (
	"flag"
	"os"

	"authpoint/internal/campaign"
	"authpoint/internal/prof"
	"authpoint/internal/telemetry"
)

// Observe is the observability half of a sweep command, which authbench
// shares with the campaign commands: the -parallel, -cpuprofile,
// -memprofile, -metrics, -telemetry and -progress flags, and the profiles,
// ledger and meter they open.
type Observe struct {
	// Parallel is the -parallel worker count (0 = NumCPU).
	Parallel int
	// Obs is the sweeps' observability, set by Open: the ledger, the meter
	// and metrics collection. It is nil without -metrics, -telemetry and
	// -progress.
	Obs *campaign.SweepObs

	cpuprofile, memprofile, telemetry string
	metrics, progress                 bool
	stopProf                          func()
}

// NewObserve registers the observability flags on the command line:
// parallel is the -parallel default, and metrics says what -metrics prints.
func NewObserve(parallel int, metrics string) *Observe {
	o := &Observe{}
	o.register(parallel, metrics)
	return o
}

func (o *Observe) register(parallel int, metrics string) {
	flag.IntVar(&o.Parallel, "parallel", parallel, "worker pool size (0 = NumCPU, 1 = serial)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file before exit")
	flag.BoolVar(&o.metrics, "metrics", false, "attach an observability hub to every timed run; "+metrics)
	flag.StringVar(&o.telemetry, "telemetry", "", "stream a JSONL run ledger (one record per cell) to this path")
	flag.BoolVar(&o.progress, "progress", false, "print live progress/ETA heartbeats to stderr")
}

// Open starts the CPU profile and opens the ledger, whose header names
// campaign, and the meter, whose lines name the command.
func (o *Observe) Open(command, campaignName string) error {
	var err error
	if o.stopProf, err = prof.Start(o.cpuprofile); err != nil {
		return err
	}
	if !o.metrics && o.telemetry == "" && !o.progress {
		return nil
	}
	o.Obs = &campaign.SweepObs{CollectMetrics: o.metrics}
	if o.telemetry != "" {
		if o.Obs.Ledger, err = telemetry.Create(o.telemetry, telemetry.NewHeader(campaignName, o.Parallel)); err != nil {
			return err
		}
	}
	if o.progress {
		o.Obs.Meter = telemetry.NewMeter(os.Stderr, command, 0)
	}
	return nil
}

// Close prints the meter's final line and flushes the ledger.
func (o *Observe) Close() error {
	if o.Obs == nil {
		return nil
	}
	o.Obs.Meter.Finish()
	if o.Obs.Ledger != nil {
		return o.Obs.Ledger.Close()
	}
	return nil
}

// Stop ends the CPU profile Open started and writes the heap profile.
func (o *Observe) Stop() error {
	o.stopProf()
	return prof.WriteHeap(o.memprofile)
}
