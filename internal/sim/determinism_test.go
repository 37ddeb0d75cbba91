package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/worm"
)

// These tests guard the invariant the internal/lint suite exists to
// protect: a seed pins a run bit-for-bit. Two runs with identical configs
// must produce byte-identical serialized Series — not merely statistically
// similar ones — because every figure and table in the reproduction is
// diffed against golden output at this granularity.

// serializeSeries renders every field of every tick with exact float
// formatting, so any drift in any tick shows up as a byte difference.
func serializeSeries(t *testing.T, res *Result) string {
	t.Helper()
	out := ""
	for _, ti := range res.Series {
		out += fmt.Sprintf("%x %d %d %d\n", ti.Time, ti.Infected, ti.NewInfections, ti.Probes)
	}
	if out == "" {
		t.Fatal("empty series")
	}
	return out
}

func TestRunExactIsDeterministic(t *testing.T) {
	pop := smallPop(t, 400, 31)
	runOnce := func() string {
		res, err := RunExact(ExactConfig{
			Pop: pop, Factory: worm.UniformFactory{},
			ScanRate: 2000, TickSeconds: 1, MaxSeconds: 120, SeedHosts: 8, Seed: 1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}
	first, second := runOnce(), runOnce()
	if first != second {
		t.Errorf("two RunExact runs with the same seed diverged:\nrun1:\n%srun2:\n%s", first, second)
	}
}

// TestTelemetryDoesNotPerturbRuns pins the tentpole guarantee of the obs
// layer: attaching a metrics registry and a clock consumes no randomness
// and changes no arithmetic, so a telemetry-on run is byte-identical to a
// telemetry-off run with the same seed — for both drivers — and two
// telemetry-on runs produce byte-identical metric snapshots.
func TestTelemetryDoesNotPerturbRuns(t *testing.T) {
	pop := smallPop(t, 400, 31)
	exact := func(reg *obs.Registry) string {
		cfg := ExactConfig{
			Pop: pop, Factory: worm.UniformFactory{},
			ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60, SeedHosts: 8, Seed: 1234,
			Metrics: reg,
		}
		if reg != nil {
			cfg.Clock = &obs.SimClock{}
		}
		res, err := RunExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}
	fast := func(reg *obs.Registry) string {
		cfg := FastConfig{
			Pop: pop, Model: NewCodeRedIIModel(),
			ScanRate: 300, TickSeconds: 1, MaxSeconds: 300, SeedHosts: 8, Seed: 5678,
			Metrics: reg,
		}
		if reg != nil {
			cfg.Clock = &obs.SimClock{}
		}
		res, err := RunFast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	if off, on := exact(nil), exact(regA); off != on {
		t.Errorf("RunExact diverged with telemetry attached:\noff:\n%son:\n%s", off, on)
	}
	if off, on := fast(nil), fast(regA); off != on {
		t.Errorf("RunFast diverged with telemetry attached:\noff:\n%son:\n%s", off, on)
	}
	exact(regB)
	fast(regB)

	snapshot := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := snapshot(regA), snapshot(regB); a != b {
		t.Errorf("two same-seed runs produced different metric snapshots:\nA:\n%s\nB:\n%s", a, b)
	}
	// The fast driver's gate-pass work counters are part of the snapshots
	// compared above; make sure they were attached and counted.
	if got := regA.Counter("sim_fast_gate_draws_total", "driver", "fast").Value(); got == 0 {
		t.Error("sim_fast_gate_draws_total not counted on the fast run")
	}
}

func TestRunFastIsDeterministic(t *testing.T) {
	pop := smallPop(t, 400, 31)
	model, err := NewLocalPrefModel(worm.NimdaPreference())
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() string {
		res, err := RunFast(FastConfig{
			Pop: pop, Model: model,
			ScanRate: 300, TickSeconds: 1, MaxSeconds: 400, SeedHosts: 8, Seed: 5678,
		})
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}
	first, second := runOnce(), runOnce()
	if first != second {
		t.Errorf("two RunFast runs with the same seed diverged:\nrun1:\n%srun2:\n%s", first, second)
	}
}
