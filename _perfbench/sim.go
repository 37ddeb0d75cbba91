package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo/proxgraph"
)

// Job counts per pass. crii-paper jobs take ~150 ms and wifi-graph jobs
// ~30 ms, so both passes last about 2 s.
const (
	criiJobs = 8
	wifiJobs = 64
)

// wifiConfig is the wifi-graph world: a 100k-router mutual-kNN graph of
// degree 8 with 1000 sensor nodes.
func wifiConfig(seed uint64) proxgraph.Config {
	return proxgraph.Config{Nodes: 100_000, Degree: 8, Sensors: 1000, Seed: seed}
}

// fastRunner replays a fixed list of RunFast jobs against one world.
type fastRunner struct {
	span  string // span name of the timed RunFast call
	seeds []uint64
	cfg   func(seed uint64) sim.FastConfig
	stop  int // required final infections (0 = none)
}

func setupCRII(seed uint64, tr *tracer) (runner, error) {
	sp := tr.begin("population.synthesize", -1, -1)
	pop, err := population.Synthesize(population.DefaultCodeRedII(seed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &fastRunner{
		span:  "sim.run_fast",
		seeds: jobSeeds(seed, criiJobs),
		cfg: func(s uint64) sim.FastConfig {
			return sim.FastConfig{
				Pop:         pop,
				Model:       sim.NewCodeRedIIModel(),
				ScanRate:    10,
				TickSeconds: 1,
				MaxSeconds:  2000,
				SeedHosts:   25,
				Seed:        s,
				Workers:     1,
			}
		},
	}, nil
}

func setupWifi(seed uint64, tr *tracer) (runner, error) {
	sp := tr.begin("proxgraph.new", -1, -1)
	world, err := proxgraph.New(wifiConfig(seed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	stop := wifiConfig(seed).Nodes / 2
	return &fastRunner{
		span:  "sim.run_fast_graph",
		seeds: jobSeeds(seed, wifiJobs),
		stop:  stop,
		cfg: func(s uint64) sim.FastConfig {
			return sim.FastConfig{
				Topology:         world,
				ScanRate:         2,
				TickSeconds:      1,
				MaxSeconds:       600,
				SeedHosts:        25,
				Seed:             s,
				Workers:          1,
				StopWhenInfected: stop,
			}
		},
	}, nil
}

// jobSeeds derives a pass's per-job simulation seeds from the workload
// seed.
func jobSeeds(seed uint64, n int) []uint64 {
	r := rng.NewXoshiroStream(seed, 0x6a6f6273, 0) // "jobs"
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func (f *fastRunner) reset() error { return nil }
func (f *fastRunner) close() error { return nil }

// pass runs every job once. When traced it attaches a metrics registry to
// each run and returns the pass's sim.* work counts.
func (f *fastRunner) pass(tr *tracer, parent int) ([]jobResult, map[string]float64) {
	var counts map[string]float64
	if tr != nil {
		counts = map[string]float64{"sim.ticks": 0, "sim.probes": 0, "sim.infected": 0}
	}
	jobs := make([]jobResult, len(f.seeds))
	for i, s := range f.seeds {
		cfg := f.cfg(s)
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		sp := tr.begin(f.span, parent, i)
		t0 := time.Now()
		res, err := sim.RunFast(cfg)
		jobs[i].ms = ms(time.Since(t0))
		tr.end(sp)
		if err == nil {
			jobs[i].digest, err = digestResult(res, f.stop)
		}
		jobs[i].err = err
		if reg != nil {
			counts["sim.ticks"] += float64(reg.Counter("sim_ticks_total", "driver", "fast").Value())
			counts["sim.probes"] += float64(reg.Counter("sim_probes_emitted_total", "driver", "fast").Value())
			counts["sim.infected"] += reg.Gauge("sim_infected_hosts", "driver", "fast").Value()
		}
	}
	return jobs, counts
}

// digestResult checks a run's probe accounting and hashes its infection
// curve and outcome counts.
func digestResult(res *sim.Result, stop int) (string, error) {
	var probes uint64
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ti := range res.Series {
		if ti.Outcomes.Total() != ti.Probes {
			return "", fmt.Errorf("tick %v: outcomes total %d != probes %d", ti.Time, ti.Outcomes.Total(), ti.Probes)
		}
		probes += ti.Probes
		put(math.Float64bits(ti.Time))
		put(uint64(ti.Infected))
		put(uint64(ti.NewInfections))
		put(ti.Probes)
	}
	if res.Outcomes.Total() != probes {
		return "", fmt.Errorf("outcomes total %d != probes %d", res.Outcomes.Total(), probes)
	}
	if res.Final.Infected < stop {
		return "", fmt.Errorf("outbreak stalled at %d/%d infected", res.Final.Infected, stop)
	}
	for _, v := range res.Outcomes {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
