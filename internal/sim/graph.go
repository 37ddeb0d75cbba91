package sim

import (
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/worm"
)

// Graph drivers: RunExact and RunFast dispatch here when the config's
// Topology is a topo.Graph. The worm spreads over neighbor lists — an
// infected node probes only its own adjacency — but the drivers run on
// the IPv4 drivers' tick engine: two-phase ticks over contiguous agent
// shards with a serial first-wins merge in agent order, and one RNG
// stream per (agent, tick) seeded from (Seed, node id, step) alone, so
// output is byte-identical for every worker count. The worlds passed in
// must satisfy topo.ValidateGraph; the drivers trust sorted symmetric
// adjacency and do not re-validate per run.
//
// Node ids double as addresses: trace infection events store the victim
// node id in the Addr field, seed edges use Vector "seed" as on IPv4,
// and scan edges use Vector "edge" with the true infector in Agent —
// including the fast driver, whose per-agent thinned draws know their
// infector (unlike the IPv4 fast driver's aggregated Agent -1 edges).

// graphEvent is a phase-1 candidate infection: agent probed victim, and
// victim was susceptible in the tick-start snapshot.
type graphEvent struct {
	agent, victim int32
}

// graphWorker is one phase-1 shard's private state, shared by both
// graph drivers (the fast driver leaves probes/outcomes untouched and
// counts sensor arrivals instead).
type graphWorker struct {
	r           rng.Xoshiro
	probes      uint64
	outcomes    OutcomeCounts
	events      []graphEvent
	sensorDraws uint64
}

func (w *graphWorker) reset() {
	w.probes = 0
	w.outcomes = OutcomeCounts{}
	w.events = w.events[:0]
	w.sensorDraws = 0
}

// graphSeeds samples the initially infected nodes: SeedHosts drawn
// without replacement from the ascending susceptible (non-sensor) node
// list, on the run seed's root stream. Both drivers use this exact
// derivation, so a fast/exact pair on the same seed starts from the
// same outbreak.
func graphSeeds(g topo.Graph, seed uint64, seedHosts int) []int {
	sus := make([]int, 0, g.Nodes()-g.SensorCount())
	for i := 0; i < g.Nodes(); i++ {
		if !g.IsSensor(i) {
			sus = append(sus, i)
		}
	}
	seeds := rng.NewXoshiro(seed).SampleWithoutReplacement(len(sus), seedHosts)
	for i, k := range seeds {
		seeds[i] = sus[k]
	}
	return seeds
}

// runExactGraph is the probe-exact driver over a neighbor graph. Every
// probe of every infected node picks a neighbor through the config's
// NeighborPicker (uniform by default) and classifies it against the
// tick-start snapshot: sensor neighbors are OutcomeSensorHit, infected
// neighbors OutcomeDelivered, susceptible neighbors buffered candidates
// that the serial merge resolves first-agent-wins.
func runExactGraph(cfg ExactConfig, g topo.Graph) (*Result, error) {
	if err := cfg.validateGraph(g); err != nil {
		return nil, err
	}
	n := g.Nodes()
	e := cfg.engine(n)
	picker := cfg.Neighbor
	if picker == nil {
		picker = worm.UniformNeighbor{}
	}

	infected := make([]bool, n)
	infTime := e.res.InfectionTime
	var agents []int32
	infect := func(id int32, t float64) {
		infected[id] = true
		infTime[id] = t
		agents = append(agents, id)
	}
	rec := cfg.Trace
	probesPerTick := int(cfg.ScanRate*cfg.TickSeconds + 0.5) // ≥1, by validation
	ws := make([]graphWorker, e.workers)
	var stepU uint64
	return e.run(tickDriver{
		seed: func(id int) uint32 {
			infect(int32(id), 0)
			return uint32(id)
		},
		begin: func(step int, _, _ float64) (int, float64) {
			stepU = uint64(step)
			return len(agents), float64(len(agents)) * float64(probesPerTick)
		},
		// Phase 1: classify against the tick-start snapshot. Nodes
		// infected this tick start probing next tick, and `infected` is
		// only written in phase 2, so shared reads are race-free.
		// Isolated nodes have nobody to probe: they emit no probes and
		// consume no RNG, so their stream ids stay untouched.
		draw: func(wi, lo, hi int) {
			w := &ws[wi]
			w.reset()
			for _, id := range agents[lo:hi] {
				nbrs := g.Neighbors(int(id))
				if len(nbrs) == 0 {
					continue
				}
				w.r.SeedStream(cfg.Seed, uint64(id), stepU)
				for p := 0; p < probesPerTick; p++ {
					w.probes++
					v := nbrs[picker.PickNeighbor(len(nbrs), &w.r)]
					switch {
					case g.IsSensor(int(v)):
						w.outcomes[OutcomeSensorHit]++
					case infected[v]:
						w.outcomes[OutcomeDelivered]++
					default:
						w.events = append(w.events, graphEvent{agent: id, victim: v})
					}
				}
			}
		},
		// Phase 2: serial merge in agent order; duplicate candidates
		// resolve first-agent-wins, later ones land as Delivered (the
		// probe reached an already-infected node).
		merge: func(step int, t float64, shards int) TickInfo {
			var newInf int
			var probes uint64
			var outcomes OutcomeCounts
			for wi := 0; wi < shards; wi++ {
				probes += ws[wi].probes
				outcomes.Merge(ws[wi].outcomes)
				for _, ev := range ws[wi].events {
					if !infected[ev.victim] {
						infect(ev.victim, t)
						newInf++
						outcomes[OutcomeInfection]++
						rec.AppendInfection(step, t, int(ev.agent), int(ev.victim), uint32(ev.victim), "edge")
					} else {
						outcomes[OutcomeDelivered]++
					}
				}
			}
			return TickInfo{Time: t, Infected: len(agents), NewInfections: newInf, Probes: probes, Outcomes: outcomes}
		},
	}, graphSeeds(g, cfg.Seed, cfg.SeedHosts), "exact "+g.Name()), nil
}

// runFastGraph is the aggregated driver over a neighbor graph. Each
// infected node's per-tick probes are a Poisson process thinned to the
// arrivals that matter — live-neighbor hits and sensor-neighbor hits —
// at rate perHost·(liveNbrs+sensNbrs)/degree, the graph analogue of the
// IPv4 driver's live-pool thinning. Each agent draws from its own
// per-(node, tick) stream, so worker count and trace attachment never
// change output. Unlike IPv4 fast aggregation, the draws here know their
// infector, so trace edges carry true provenance.
func runFastGraph(cfg FastConfig, g topo.Graph) (*Result, error) {
	if err := cfg.validateGraph(g); err != nil {
		return nil, err
	}
	n := g.Nodes()
	e := cfg.engine(n)

	infected := make([]bool, n)
	infTime := e.res.InfectionTime
	// liveNbrs counts each node's susceptible (non-sensor, non-infected)
	// neighbors; sensNbrs its sensor neighbors. Both shape the thinned
	// rates; liveNbrs is maintained incrementally as infections land.
	liveNbrs := make([]int32, n)
	sensNbrs := make([]int32, n)
	for i := 0; i < n; i++ {
		for _, v := range g.Neighbors(i) {
			if g.IsSensor(int(v)) {
				sensNbrs[i]++
			} else {
				liveNbrs[i]++
			}
		}
	}
	var agents []int32
	infect := func(id int32, t float64) {
		infected[id] = true
		infTime[id] = t
		agents = append(agents, id)
		for _, u := range g.Neighbors(int(id)) {
			liveNbrs[u]--
		}
	}
	rec := cfg.Trace
	perHost := cfg.ScanRate * cfg.TickSeconds
	// liveNeighbor resolves the j-th susceptible neighbor of id against
	// the tick-start snapshot — an O(degree) positional scan of the
	// sorted adjacency, never a map.
	liveNeighbor := func(id int32, j uint64) int32 {
		for _, v := range g.Neighbors(int(id)) {
			if infected[v] || g.IsSensor(int(v)) {
				continue
			}
			if j == 0 {
				return v
			}
			j--
		}
		panic("sim: live neighbor index out of snapshot range")
	}

	ws := make([]graphWorker, e.workers)
	var stepU uint64
	var probesTotal float64
	return e.run(tickDriver{
		seed: func(id int) uint32 {
			infect(int32(id), 0)
			return uint32(id)
		},
		// The tick's expected arrivals and emitted probes, summed over the
		// tick-start agents in infection order, so the float sums' order
		// is fixed.
		begin: func(step int, _, _ float64) (int, float64) {
			stepU = uint64(step)
			lam := 0.0
			probing := 0
			for _, id := range agents {
				deg := g.Degree(int(id))
				if deg == 0 {
					continue
				}
				probing++
				lam += perHost * float64(liveNbrs[id]+sensNbrs[id]) / float64(deg)
			}
			probesTotal = perHost * float64(probing)
			return len(agents), lam
		},
		// Phase 1: each agent consumes its (node, tick) stream — one
		// rng.Poisson draw for the arrival count, then per arrival one
		// categorical draw (infection category first, then sensor) and,
		// for infections, one selection draw over the live neighbors.
		draw: func(wi, lo, hi int) {
			w := &ws[wi]
			w.reset()
			for _, id := range agents[lo:hi] {
				deg := g.Degree(int(id))
				if deg == 0 {
					continue
				}
				lamInf := perHost * float64(liveNbrs[id]) / float64(deg)
				lamSens := perHost * float64(sensNbrs[id]) / float64(deg)
				lam := lamInf + lamSens
				if lam <= 0 {
					continue
				}
				r := &w.r
				r.SeedStream(cfg.Seed, uint64(id), stepU)
				for k := r.Poisson(lam); k > 0; k-- {
					u := r.Float64() * lam
					if lamInf > 0 && u <= lamInf {
						j := r.Uint64n(uint64(liveNbrs[id]))
						w.events = append(w.events, graphEvent{agent: id, victim: liveNeighbor(id, j)})
					} else {
						w.sensorDraws++
					}
				}
			}
		},
		// Phase 2: serial merge in agent order; duplicate victims resolve
		// first-event-wins.
		merge: func(step int, t float64, shards int) TickInfo {
			var newInf int
			var sensorDraws uint64
			for wi := 0; wi < shards; wi++ {
				w := &ws[wi]
				sensorDraws += w.sensorDraws
				for _, ev := range w.events {
					if infected[ev.victim] {
						continue // claimed earlier this tick
					}
					infect(ev.victim, t)
					newInf++
					rec.AppendInfection(step, t, int(ev.agent), int(ev.victim), uint32(ev.victim), "edge")
				}
			}
			probes, outcomes := closeFastTickOutcomes(probesTotal, newInf, sensorDraws, 0, 1, 0)
			return TickInfo{Time: t, Infected: len(agents), NewInfections: newInf, Probes: probes, Outcomes: outcomes}
		},
	}, graphSeeds(g, cfg.Seed, cfg.SeedHosts), "fast "+g.Name()), nil
}
