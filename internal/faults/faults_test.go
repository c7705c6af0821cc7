package faults

import (
	"math"
	"testing"
	"time"

	"celestial/internal/machine"
	"celestial/internal/rng"
	"celestial/internal/vnet"
)

func validModel() SEUModel {
	return SEUModel{
		RatePerHour:  2,
		ShutdownProb: 0.3,
		RebootAfter:  30 * time.Second,
		DegradeTo:    0.5,
		DegradeFor:   time.Minute,
	}
}

func TestValidate(t *testing.T) {
	if err := validModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []SEUModel{
		{RatePerHour: -1},
		{RatePerHour: 1, ShutdownProb: 2, DegradeTo: 0.5},
		{RatePerHour: 1, RebootAfter: -time.Second, DegradeTo: 0.5},
		{RatePerHour: 1, DegradeTo: -0.5},
		{RatePerHour: 1, DegradeTo: 0.5, DegradeFor: -time.Minute},
		{RatePerHour: 1, ShutdownProb: 0.5}, // degradation without DegradeTo
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted: %+v", i, m)
		}
	}
}

func TestSamplePoissonRate(t *testing.T) {
	m := validModel()
	rnd := rng.New(1)
	total := 0
	trials := 200
	horizon := 5 * time.Hour
	for i := 0; i < trials; i++ {
		evs, err := m.Sample(rnd, horizon)
		if err != nil {
			t.Fatal(err)
		}
		total += len(evs)
		for _, ev := range evs {
			if ev.At < 0 || ev.At >= horizon {
				t.Fatalf("event at %v outside horizon", ev.At)
			}
			if ev.Until <= ev.At {
				t.Fatalf("event ends %v before it starts %v", ev.Until, ev.At)
			}
		}
	}
	mean := float64(total) / float64(trials)
	want := m.ExpectedCount(horizon) // 10
	if math.Abs(mean-want)/want > 0.15 {
		t.Errorf("mean events = %v, want ≈%v", mean, want)
	}
}

func TestSampleMixesKinds(t *testing.T) {
	m := validModel()
	rnd := rng.New(2)
	evs, err := m.Sample(rnd, 100*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var shut, degr int
	for _, ev := range evs {
		switch ev.Kind {
		case KindShutdown:
			shut++
		case KindDegrade:
			degr++
		}
	}
	if shut == 0 || degr == 0 {
		t.Errorf("kinds not mixed: %d shutdowns, %d degradations", shut, degr)
	}
	frac := float64(shut) / float64(shut+degr)
	if math.Abs(frac-0.3) > 0.1 {
		t.Errorf("shutdown fraction = %v, want ≈0.3", frac)
	}
	if KindShutdown.String() != "shutdown" || KindDegrade.String() != "degrade" || Kind(9).String() != "kind(9)" {
		t.Error("kind strings")
	}
}

func TestSampleZeroRate(t *testing.T) {
	m := SEUModel{}
	evs, err := m.Sample(rng.New(3), time.Hour)
	if err != nil || evs != nil {
		t.Errorf("zero-rate sample = %v, %v", evs, err)
	}
	if _, err := validModel().Sample(rng.New(4), 0); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestSampleDeterministic(t *testing.T) {
	m := validModel()
	a, err := m.Sample(rng.New(7), 10*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Sample(rng.New(7), 10*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInjectorDrivesMachine(t *testing.T) {
	// High rate so something happens in a short horizon.
	model := SEUModel{
		RatePerHour:  3600, // one per second on average
		ShutdownProb: 0.5,
		RebootAfter:  2 * time.Second,
		DegradeTo:    0.25,
		DegradeFor:   3 * time.Second,
	}
	inj, err := NewInjector(model, 11)
	if err != nil {
		t.Fatal(err)
	}
	sim := vnet.NewSim(time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC))
	m, err := machine.New(0, "sat", machine.Resources{VCPUs: 1, MemMiB: 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(sim.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteBoot(sim.Now()); err != nil {
		t.Fatal(err)
	}
	events, err := inj.Schedule(sim, m, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events sampled at rate 3600/h over a minute")
	}
	if err := sim.RunUntil(sim.Now().Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	// The machine experienced crashes: its boot count rose above 1, and
	// its transition log names radiation.
	sawCrash := false
	for _, tr := range m.Transitions() {
		if tr.Reason == "radiation SEU shutdown" {
			sawCrash = true
		}
	}
	hasShutdown := false
	for _, ev := range events {
		if ev.Kind == KindShutdown {
			hasShutdown = true
		}
	}
	if hasShutdown && !sawCrash {
		t.Error("sampled shutdown never applied to machine")
	}
	if hasShutdown && m.BootCount() < 2 {
		t.Errorf("boot count = %d after shutdown events", m.BootCount())
	}
}

func TestNewInjectorRejectsBadModel(t *testing.T) {
	if _, err := NewInjector(SEUModel{RatePerHour: -1}, 0); err == nil {
		t.Error("accepted invalid model")
	}
}

func TestSampleZeroRateLongHorizon(t *testing.T) {
	// A zero rate must stay event-free over an arbitrarily long horizon —
	// and return immediately, not loop sampling infinite gaps.
	m := SEUModel{RatePerHour: 0, ShutdownProb: 1, RebootAfter: time.Minute}
	for _, horizon := range []time.Duration{time.Hour, 24 * 365 * time.Hour, 100 * 24 * 365 * time.Hour} {
		evs, err := m.Sample(rng.New(9), horizon)
		if err != nil {
			t.Fatalf("horizon %v: %v", horizon, err)
		}
		if len(evs) != 0 {
			t.Fatalf("horizon %v produced %d events at rate 0", horizon, len(evs))
		}
	}
}

func TestSampleHorizonShorterThanOneExpectedEvent(t *testing.T) {
	// One event per hour expected, but only a 1 s horizon: most draws have
	// no event, and every event that does occur must fall inside the
	// horizon. Across many seeds the frequency must be far below one per
	// sample (≈ 1/3600).
	m := validModel()
	m.RatePerHour = 1
	horizon := time.Second
	total := 0
	for seed := int64(0); seed < 2000; seed++ {
		evs, err := m.Sample(rng.New(seed), horizon)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.At < 0 || ev.At >= horizon {
				t.Fatalf("seed %d: event at %v outside horizon %v", seed, ev.At, horizon)
			}
			if ev.Until < ev.At {
				t.Fatalf("seed %d: event ends %v before it starts %v", seed, ev.Until, ev.At)
			}
		}
		total += len(evs)
	}
	// Expectation is 2000/3600 ≈ 0.56 events; allow generous slack but
	// catch a model that misreads the rate unit (e.g. per second).
	if total > 20 {
		t.Fatalf("%d events across 2000 1s samples at 1/hour", total)
	}
}

func TestValidateRejectsNegativeRates(t *testing.T) {
	for _, rate := range []float64{-0.001, -1, -1e9, math.Inf(-1)} {
		m := validModel()
		m.RatePerHour = rate
		if err := m.Validate(); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
		if _, err := m.Sample(rng.New(1), time.Hour); err == nil {
			t.Errorf("rate %v sampled", rate)
		}
	}
}

func TestSampleTinyRatesStayInsideHorizon(t *testing.T) {
	// A tiny rate draws gaps far past MaxInt64 nanoseconds; they must end
	// the process, not wrap to negative offsets.
	horizon := time.Hour
	for _, rate := range []float64{1e-12, 1e-9, 1e-6, 1e-3, 1, 1e3} {
		m := validModel()
		m.RatePerHour = rate
		evs, err := m.Sample(rng.New(1), horizon)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.At < 0 || ev.At >= horizon {
				t.Fatalf("rate %g: event at %v outside [0, %v)", rate, ev.At, horizon)
			}
		}
		if rate <= 1e-6 && len(evs) != 0 {
			t.Errorf("rate %g per hour over %v: %d events, want 0", rate, horizon, len(evs))
		}
	}
}
