package sim

import (
	"sync"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/trace"
)

// These hashes pin the fast driver on many-group, constant-delivery
// CodeRedII worlds, where most mixture groups sit idle on most ticks and
// the driver's rate cache is refreshed lazily. The 600-host golden world
// above cannot see that path: its burst-fault plan moves the tick's
// delivery probability every tick, which forces a full rate rebuild each
// time. The hashes were captured from the eager driver that rebuilt every
// group on every tick with a kill, so they hold the lazy refresh to the
// same bytes. The containment run engages mid-run, which changes the
// delivery probability once: one full rebuild, then lazy again.
const (
	goldenCRIIW1            = "80d0fe8bd8da45625cf2bb58d1667cfe04b292341c13e097788095a2301eac3a"
	goldenCRIIW4            = "80d0fe8bd8da45625cf2bb58d1667cfe04b292341c13e097788095a2301eac3a"
	goldenCRIIContainmentW1 = "bddc3c3b84d29d46fe520fee6a0d5146ceeb4fc247269f23601438e85eb385ec"
	goldenCRIIContainmentW4 = "bddc3c3b84d29d46fe520fee6a0d5146ceeb4fc247269f23601438e85eb385ec"
)

var (
	criiPopOnce sync.Once
	criiPop     *population.Population
	criiPopErr  error
)

// criiPaperPop is the paper's 134,586-host CodeRedII population, built once
// per test binary: runs only read it.
func criiPaperPop(t *testing.T) *population.Population {
	t.Helper()
	criiPopOnce.Do(func() {
		criiPop, criiPopErr = population.Synthesize(population.DefaultCodeRedII(1))
	})
	if criiPopErr != nil {
		t.Fatal(criiPopErr)
	}
	return criiPop
}

// criiSensorSet monitors the /24 of every 2000th host, so CodeRedII's /8 and
// /16 preferences land probes on sensors throughout the run.
func criiSensorSet(t *testing.T, pop *population.Population) *ipv4.Set {
	t.Helper()
	var pfx []ipv4.Prefix
	for id := 0; id < pop.Size(); id += 2000 {
		p, err := ipv4.NewPrefix(pop.Host(id).Addr, 24)
		if err != nil {
			t.Fatal(err)
		}
		pfx = append(pfx, p)
	}
	return ipv4.SetOfPrefixes(pfx...)
}

// goldenCRIIRun runs the CodeRedII world from 25 seeds at 10 probes/s for
// 400 s: about 57k infections over some 1,100 /16 groups, with a kill on
// every tick. With containment set it also embeds a sensor fleet and
// engages a 50% drop once the fleet has seen 200 probes (near t = 93 s).
func goldenCRIIRun(t *testing.T, workers int, containment bool) string {
	t.Helper()
	pop := criiPaperPop(t)
	rec := trace.NewRecorder(0)
	cfg := FastConfig{
		Pop:         pop,
		Model:       NewCodeRedIIModel(),
		ScanRate:    10,
		TickSeconds: 1,
		MaxSeconds:  400,
		SeedHosts:   25,
		Seed:        2024,
		Workers:     workers,
		Trace:       rec,
	}
	col := &addrCollector{}
	if containment {
		cfg.Sensors = col
		cfg.SensorSet = criiSensorSet(t, pop)
		cfg.Containment = &Containment{
			Trigger: func() bool { return len(col.hits) >= 200 },
			Drop:    0.5,
		}
	}
	res, err := RunFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if containment {
		if !cfg.Containment.Engaged() || cfg.Containment.EngagedAt >= cfg.MaxSeconds-10 {
			t.Fatalf("containment engaged=%v at %v: the fixture must switch mid-run",
				cfg.Containment.Engaged(), cfg.Containment.EngagedAt)
		}
	}
	return goldenSerialize(t, res, col.hits, rec)
}

// TestFastLazyGoldenByteIdentity holds the many-group CodeRedII runs to the
// eager driver's output, serially and with four workers. Run with -v to
// see the hashes.
func TestFastLazyGoldenByteIdentity(t *testing.T) {
	cases := []struct {
		name        string
		want        string
		workers     int
		containment bool
	}{
		{"crii-workers1", goldenCRIIW1, 1, false},
		{"crii-workers4", goldenCRIIW4, 4, false},
		{"crii-containment-workers1", goldenCRIIContainmentW1, 1, true},
		{"crii-containment-workers4", goldenCRIIContainmentW4, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenHash(goldenCRIIRun(t, tc.workers, tc.containment))
			t.Logf("%s hash %s", tc.name, got)
			if got != tc.want {
				t.Errorf("%s output hash %s, pinned eager-driver hash %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestFastLazyWorkersTickSkipIdentity extends the pin to more worker
// counts, whose quiescent ticks run as one inline shard and busy ticks fan
// out: the lazy gate pass is serial and identical on all of them, so only
// the draw scheduling differs.
func TestFastLazyWorkersTickSkipIdentity(t *testing.T) {
	for _, containment := range []bool{false, true} {
		want := goldenCRIIW1
		if containment {
			want = goldenCRIIContainmentW1
		}
		for _, workers := range []int{2, 8} {
			if got := goldenHash(goldenCRIIRun(t, workers, containment)); got != want {
				t.Errorf("containment=%v workers=%d: hash %s, want %s",
					containment, workers, got, want)
			}
		}
	}
}

// TestFastWorkCounters checks the gate-pass work counters on the plain
// CodeRedII fixture: they are counted on the simulated clock, so every
// worker count reports the same values; fired gates never exceed gated
// ones; and exact refreshes stay well below the group-ticks an eager
// rebuild would have recomputed.
func TestFastWorkCounters(t *testing.T) {
	pop := criiPaperPop(t)
	counts := func(workers int) [3]uint64 {
		reg := obs.NewRegistry()
		_, err := RunFast(FastConfig{
			Pop: pop, Model: NewCodeRedIIModel(),
			ScanRate: 10, TickSeconds: 1, MaxSeconds: 400, SeedHosts: 25, Seed: 2024,
			Workers: workers, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var c [3]uint64
		for i, name := range []string{
			"sim_fast_gate_draws_total", "sim_fast_gates_fired_total", "sim_fast_groups_refreshed_total",
		} {
			c[i] = reg.Counter(name, "driver", "fast").Value()
		}
		return c
	}
	c := counts(1)
	gated, fired, refreshed := c[0], c[1], c[2]
	t.Logf("gated=%d fired=%d refreshed=%d", gated, fired, refreshed)
	if fired == 0 || fired > gated {
		t.Errorf("fired %d of %d gated group-ticks", fired, gated)
	}
	if refreshed == 0 || 2*refreshed > gated {
		t.Errorf("%d exact refreshes over %d gated group-ticks: the lazy path is not saving work", refreshed, gated)
	}
	if c4 := counts(4); c4 != c {
		t.Errorf("Workers=4 counted %v, Workers=1 %v", c4, c)
	}
}
