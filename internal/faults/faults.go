// Package faults models the environmental failure source of the LEO edge
// that Celestial lets users test against (§2.3, §3.1 of the paper):
// radiation-induced single event upsets (SEUs) from galactic cosmic rays,
// which cause temporary performance degradation or full shutdowns of
// satellite servers.
//
// The SEU arrival process is Poisson: inter-arrival times are exponential
// with a configurable per-machine rate. An Injector samples fault events
// deterministically (seeded) and applies them to machines through a small
// interface, so the host can schedule crash/recover pairs in the
// simulation.
package faults

import (
	"fmt"
	"time"

	"celestial/internal/rng"
)

// SEUModel describes radiation-induced single event upsets for one
// machine.
type SEUModel struct {
	// RatePerHour is the expected number of SEUs per machine-hour.
	RatePerHour float64
	// ShutdownProb is the probability that an SEU causes a full
	// shutdown and reboot; otherwise it causes degradation.
	ShutdownProb float64
	// RebootAfter is the outage duration before a shutdown SEU's
	// machine restarts.
	RebootAfter time.Duration
	// DegradeTo is the CPU throttle applied by a degradation SEU
	// (HPE's Spaceborne Computer mitigations cost performance).
	DegradeTo float64
	// DegradeFor is how long degradation lasts.
	DegradeFor time.Duration
}

// Validate reports an error for unusable parameters.
func (m SEUModel) Validate() error {
	switch {
	case m.RatePerHour < 0:
		return fmt.Errorf("faults: negative SEU rate %v", m.RatePerHour)
	case m.ShutdownProb < 0 || m.ShutdownProb > 1:
		return fmt.Errorf("faults: shutdown probability %v outside [0, 1]", m.ShutdownProb)
	case m.RebootAfter < 0:
		return fmt.Errorf("faults: negative reboot duration %v", m.RebootAfter)
	case m.DegradeTo < 0 || m.DegradeTo > 1:
		return fmt.Errorf("faults: degrade throttle %v outside [0, 1]", m.DegradeTo)
	case m.DegradeTo == 0 && m.ShutdownProb < 1 && m.RatePerHour > 0:
		return fmt.Errorf("faults: degradation events require DegradeTo > 0")
	case m.DegradeFor < 0:
		return fmt.Errorf("faults: negative degrade duration %v", m.DegradeFor)
	}
	return nil
}

// Kind is the effect class of a fault event.
type Kind int

const (
	// KindShutdown crashes the machine; it reboots after RebootAfter.
	KindShutdown Kind = iota + 1
	// KindDegrade throttles the machine's CPU for DegradeFor.
	KindDegrade
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindShutdown:
		return "shutdown"
	case KindDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one sampled fault.
type Event struct {
	// At is the offset from the sampling start.
	At   time.Duration
	Kind Kind
	// Until is when the effect ends (reboot completes / throttle
	// lifts), as an offset from the sampling start.
	Until time.Duration
}

// Sample draws the fault events for one machine over a horizon using a
// Poisson process. Results are deterministic for a given stream state.
func (m SEUModel) Sample(rnd *rng.Stream, horizon time.Duration) ([]Event, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: horizon must be positive, have %v", horizon)
	}
	if m.RatePerHour == 0 {
		return nil, nil
	}
	var events []Event
	t := time.Duration(0)
	for {
		// Exponential gap with mean 1/rate hours, checked before converting.
		gap := rnd.ExpFloat64() / m.RatePerHour * float64(time.Hour)
		if gap >= float64(horizon-t) {
			return events, nil
		}
		t += time.Duration(gap)
		ev := Event{At: t}
		if rnd.Float64() < m.ShutdownProb {
			ev.Kind = KindShutdown
			ev.Until = t + m.RebootAfter
		} else {
			ev.Kind = KindDegrade
			ev.Until = t + m.DegradeFor
		}
		events = append(events, ev)
	}
}

// ExpectedCount returns the analytic expected number of SEUs over a
// horizon.
func (m SEUModel) ExpectedCount(horizon time.Duration) float64 {
	return m.RatePerHour * horizon.Hours()
}

// Target is the machine surface the injector drives. It matches the
// machine package's Machine plus the scheduling side of the host.
type Target interface {
	// Crash fails the machine now.
	Crash(now time.Time, reason string) error
	// Start reboots the machine now.
	Start(now time.Time) error
	// SetThrottle changes the CPU allocation fraction.
	SetThrottle(f float64) error
}

// Scheduler schedules callbacks at absolute times (the vnet.Sim surface).
type Scheduler interface {
	At(t time.Time, fn func()) error
	Now() time.Time
}

// Injector samples and applies fault events to machines.
type Injector struct {
	model SEUModel
	rnd   *rng.Stream
}

// NewInjector creates a deterministic injector.
func NewInjector(model SEUModel, seed int64) (*Injector, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Injector{model: model, rnd: rng.New(seed)}, nil
}

// Schedule samples the fault timeline for one machine over the horizon and
// registers the corresponding crash/reboot and degrade/restore callbacks
// with the scheduler. It returns the sampled events.
func (in *Injector) Schedule(sched Scheduler, target Target, horizon time.Duration) ([]Event, error) {
	events, err := in.model.Sample(in.rnd, horizon)
	if err != nil {
		return nil, err
	}
	start := sched.Now()
	for _, ev := range events {
		switch ev.Kind {
		case KindShutdown:
			if err := sched.At(start.Add(ev.At), func() {
				// A machine may already be failed/stopped when a
				// second SEU hits; that is not an error.
				_ = target.Crash(sched.Now(), "radiation SEU shutdown")
			}); err != nil {
				return nil, err
			}
			if err := sched.At(start.Add(ev.Until), func() {
				_ = target.Start(sched.Now())
			}); err != nil {
				return nil, err
			}
		case KindDegrade:
			if err := sched.At(start.Add(ev.At), func() {
				_ = target.SetThrottle(in.model.DegradeTo)
			}); err != nil {
				return nil, err
			}
			if err := sched.At(start.Add(ev.Until), func() {
				_ = target.SetThrottle(1)
			}); err != nil {
				return nil, err
			}
		}
	}
	return events, nil
}
