// Package clock provides the processing-delay jitter model calibrated from
// the paper's baseline measurement. Virtual time is not here: it belongs
// to the discrete-event engine (vnet.Sim), whose Now is read on the
// simulation goroutine only.
//
// The paper minimizes clock drift between clients by scheduling them on one
// host with a shared PTP clock (§4.1). In this emulator all virtual
// machines of a run read the one engine's time, which makes timestamps
// consistent by construction; the measured client-side processing delay
// (1.37 ms median, 3.86 ms standard deviation) is modeled explicitly with
// ProcessingDelayModel so that end-to-end measurements keep the same jitter
// characteristics as the paper's testbed.
package clock

import (
	"math"
	"time"

	"celestial/internal/rng"
)

// ProcessingDelayModel generates client processing delays with a log-normal
// distribution. The defaults reproduce the paper's baseline measurement:
// 1.37 ms median and 3.86 ms standard deviation caused by measurement
// software, packet duplication, packet forwarding and clock drift (§4.1).
type ProcessingDelayModel struct {
	// Median is the distribution median (the log-normal scale exp(μ)).
	Median time.Duration
	// Sigma is the log-normal shape parameter.
	Sigma float64
}

// DefaultProcessingDelay is calibrated so the median matches 1.37 ms and
// the standard deviation is ≈3.86 ms.
func DefaultProcessingDelay() ProcessingDelayModel {
	return ProcessingDelayModel{Median: 1370 * time.Microsecond, Sigma: 1.104}
}

// Sample draws one processing delay using the given random source.
func (m ProcessingDelayModel) Sample(rnd *rng.Stream) time.Duration {
	if m.Median <= 0 {
		return 0
	}
	mu := math.Log(m.Median.Seconds())
	d := math.Exp(mu + m.Sigma*rnd.NormFloat64())
	return time.Duration(d * float64(time.Second))
}

// Mean returns the analytic mean of the distribution.
func (m ProcessingDelayModel) Mean() time.Duration {
	if m.Median <= 0 {
		return 0
	}
	mean := m.Median.Seconds() * math.Exp(m.Sigma*m.Sigma/2)
	return time.Duration(mean * float64(time.Second))
}

// StdDev returns the analytic standard deviation of the distribution.
func (m ProcessingDelayModel) StdDev() time.Duration {
	if m.Median <= 0 {
		return 0
	}
	s2 := m.Sigma * m.Sigma
	sd := m.Median.Seconds() * math.Sqrt((math.Exp(s2)-1)*math.Exp(s2))
	return time.Duration(sd * float64(time.Second))
}
