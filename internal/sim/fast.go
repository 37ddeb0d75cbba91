package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// FastConfig configures the aggregated driver.
type FastConfig struct {
	// Topology selects the world the epidemic spreads over. nil and
	// topo.IPv4 both mean the reference IPv4 world — the paper's flat
	// address space, driven by Pop/Model below. A topo.Graph runs the
	// neighbor-graph driver instead, in which case the IPv4-only fields
	// (Pop, Model, BlockedDst, Sensors, SensorSet, LossRate,
	// Containment, Faults) must be unset — they have no graph semantics
	// and are rejected with a *TopologyConflictError rather than
	// silently ignored.
	Topology topo.Topology
	// Pop is the vulnerable population.
	Pop *population.Population
	// Model decomposes the scanner into mixture components.
	Model RateModel
	// ScanRate is probes per second per infected host; TickSeconds the
	// step; MaxSeconds the horizon.
	ScanRate    float64
	TickSeconds float64
	MaxSeconds  float64
	// SeedHosts initially infected hosts, drawn uniformly.
	SeedHosts int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the number of phase-1 draw goroutines per tick (0 means
	// GOMAXPROCS, 1 runs the draws inline). Results are byte-identical for
	// every worker count: each mixture group's draws come from its own
	// per-(group, tick) RNG stream and merge in group-creation order
	// (DESIGN.md §14).
	Workers int
	// LossRate is the environmental probe-loss probability.
	LossRate float64
	// BlockedDst is destination space hard-blocked upstream (probes there
	// are always lost). May be nil.
	BlockedDst *ipv4.Set
	// Sensors receives monitored probes; SensorSet is the union of
	// monitored space and must be set when Sensors is.
	Sensors   HitRecorder
	SensorSet *ipv4.Set
	// OnTick, when non-nil, is called each tick; returning false stops.
	OnTick func(TickInfo) bool
	// StopWhenInfected stops once this many hosts are infected (0=never).
	StopWhenInfected int
	// Containment, when non-nil, models a coordinated response (Internet
	// quarantine): once Trigger returns true the policy engages and every
	// subsequent probe is dropped with probability Drop.
	Containment *Containment
	// Metrics, when non-nil, receives per-tick probe-outcome counters and
	// run gauges (see DESIGN.md for the metric-name contract). Attaching a
	// registry never perturbs the run: telemetry draws no randomness.
	Metrics *obs.Registry
	// MetricLabels are extra label pairs ("k1", "v1", …) appended to every
	// series this run registers. Runs sharing one registry — concurrent
	// sweep points in particular — must set distinct labels here, or their
	// counters aggregate indistinguishably and gauges become
	// last-writer-wins.
	MetricLabels []string
	// Clock, when non-nil, is set to the tick's simulated time at the
	// start of each tick, so observers (sensor fleets, tracers) timestamp
	// events in simulated seconds.
	Clock *obs.SimClock
	// Faults, when non-nil, injects the plan's sensor outages, bursty
	// loss, and degraded reporting into the run (misconfiguration is
	// applied when LossRate/BlockedDst are derived, not here). The plan's
	// horizon must cover MaxSeconds. The burst channel scales each tick's
	// delivery probability; sensor draws landing on withdrawn blocks are
	// OutcomeSensorDown and never reach Sensors.
	Faults *faults.Plan
	// Trace, when non-nil, receives the run's flight-recorder events.
	// The fast driver draws infections in aggregate, so its edges carry
	// no infector (Agent -1) and are attributed to the mixture component
	// that drew them (Vector "c0", "c1", … in the model's component
	// order). Attaching a recorder draws no randomness and never perturbs
	// the run (DESIGN.md §12).
	Trace *trace.Recorder
}

// Containment is a global response policy: detection-triggered filtering
// of the worm's traffic (Moore et al.'s "Internet quarantine" model). The
// paper's closing argument — local detection matters because it triggers
// response *early* — is quantified by wiring a detector fleet's alert state
// into Trigger.
//
// A Containment is per-run state: RunFast clears the engagement when a run
// starts and records it as the run goes, so reusing one policy for a
// second run starts that run disengaged, and Engaged/EngagedAt describe
// the latest run only. Runs sharing one policy must not overlap.
type Containment struct {
	// Trigger is evaluated after every tick; once it returns true the
	// policy engages for the rest of the run.
	Trigger func() bool
	// Drop is the per-probe drop probability once engaged.
	Drop float64
	// engaged latches the trigger; EngagedAt records the simulated time.
	engaged   bool
	EngagedAt float64
}

// Engaged reports whether the policy has triggered.
func (c *Containment) Engaged() bool { return c.engaged }

func (c *FastConfig) validate() error {
	if c.Pop == nil || c.Pop.Size() == 0 {
		return errors.New("sim: empty population")
	}
	if c.Model == nil {
		return errors.New("sim: nil rate model")
	}
	if err := checkRun(c.ScanRate, c.TickSeconds, c.MaxSeconds, c.Workers); err != nil {
		return err
	}
	if c.SeedHosts <= 0 || c.SeedHosts > c.Pop.Size() {
		return fmt.Errorf("sim: seed hosts %d out of range", c.SeedHosts)
	}
	if c.Sensors != nil && c.SensorSet == nil {
		return errors.New("sim: Sensors set but SensorSet missing")
	}
	if math.IsNaN(c.LossRate) || c.LossRate < 0 || c.LossRate >= 1 {
		return errors.New("sim: loss rate out of [0,1)")
	}
	if c.Containment != nil {
		if c.Containment.Trigger == nil {
			return errors.New("sim: containment without a trigger")
		}
		if math.IsNaN(c.Containment.Drop) || c.Containment.Drop < 0 || c.Containment.Drop > 1 {
			return errors.New("sim: containment drop out of [0,1]")
		}
	}
	return checkFaultHorizon(c.Faults, c.MaxSeconds)
}

// engine builds the tick loop for a run of this config over hosts hosts.
func (c *FastConfig) engine(hosts int) *tickEngine {
	return newTickEngine(tickEngine{workers: c.Workers, tickSeconds: c.TickSeconds, steps: int(c.MaxSeconds / c.TickSeconds),
		clock: c.Clock, rec: c.Trace, plan: c.Faults, onTick: c.OnTick, stopWhen: c.StopWhenInfected},
		hosts, c.Metrics, "fast", c.MetricLabels)
}

// fastNormalLambda is the intensity at which rng.Poisson switches from
// Knuth inversion to its normal approximation. Below it a group-tick's
// first uniform alone can settle k = 0; at or above it the group always
// draws.
const fastNormalLambda = 30

// slotSpan is a half-open arena slot range [Lo, Hi) — topo.Span, which
// the IPv4 reference topology constructs; the driver keeps the local
// alias because span geometry is arena layout, not set algebra.
type slotSpan = topo.Span

// ipv4World is the reference topology whose pure helpers (victim-span
// construction, sensor embedding) the driver routes pool building
// through. It is stateless; a package-level value keeps call sites
// terse.
var ipv4World topo.IPv4

// fastComp is one precomputed mixture component of a group. Its victim
// pool is an immutable union of arena slot spans; liveness is resolved
// against the shared live index at draw time, so the per-tick arrival rate
// is weightOverSet times the *live* pool size — Poisson thinning of the
// full-pool rate, distributionally equivalent to drawing at the full rate
// and rejecting infected victims, without the late-epidemic rejection
// waste.
type fastComp struct {
	weightOverSet float64 // component weight divided by the set's address count
	pSensor       float64 // per-probe probability of landing on monitored space
	data          *compData
	sensors       *ipv4.Set

	// Intensity cache, written by refreshGroup together with the owning
	// group's lam: the infection- and sensor-category intensities and the
	// live pool size they were priced with.
	rate, sens float64
	live       int64
}

// fastGroup aggregates infected hosts sharing a mixture. Its components
// are the span [off, off+n) of fastState.comps — one flat slice for all
// groups instead of a per-group allocation.
type fastGroup struct {
	off, n   int32
	infected int
	// lam is the group's total arrival intensity λ, exact as of rate
	// rebuild stamp and, while the delivery probability holds, an upper
	// bound on the true λ after it (see rebuildRates); +Inf marks a group
	// whose λ may have risen.
	lam   float64
	stamp uint64
	idKey uint64 // rng.StreamIDKey(seed, group index)
}

// fastFire is one group whose gate can fire this tick: its index and the
// key of its (group, tick) stream.
type fastFire struct {
	gi  int32
	key uint64
}

// fastWork counts one tick's gate-pass work units for the metrics flush.
type fastWork struct {
	gated, fired, refreshed uint64
}

type compKey struct {
	set  *ipv4.Set
	site int
}

// compData is the per-(set, site) pool geometry: the arena slot spans the
// set covers plus the monitored-space intersection. The geometry fields are
// immutable after construction; the live-geometry cache below is refreshed
// serially by the gate pass, only for pools of groups it refreshes (stamp
// tells it "already done this rebuild" — many groups share one compData),
// and only read by phase-1 workers, so neither needs synchronization.
type compData struct {
	spans       []slotSpan
	sensorInter *ipv4.Set
	sensorSize  uint64
	setSize     uint64

	// Live-geometry cache: per-span cumulative live counts and the global
	// live rank at each span's start, valid for the live index as of the
	// stamp'th rate rebuild. Victim selection reads these instead of
	// querying the live index per span, leaving one Fenwick descent per
	// draw.
	stamp   uint64
	liveCt  int64
	cumLive []int64
	rankLo  []int64
}

// fastEvent is one phase-1 arrival awaiting the serial merge: an infection
// candidate (slot ≥ 0) or a sensor observation (slot -1). ci is the
// component index within its group, kept for trace attribution.
type fastEvent struct {
	slot int32
	ci   int32
	dst  ipv4.Addr
}

// fastWorker is one phase-1 draw shard's private state. The RNG is a
// value, reseeded per (group, tick) — no worker ever shares randomness
// with another, which is what makes the tick's result independent of
// goroutine scheduling.
type fastWorker struct {
	r      rng.Xoshiro
	events []fastEvent
}

// fastState carries the driver's caches.
type fastState struct {
	cfg FastConfig
	pop *population.Population

	// groups maps a mixture key to its index in groupList.
	groups map[uint64]int32
	// groupList holds groups in creation order: per-tick processing must
	// not follow map iteration order, or same-seed runs would diverge. A
	// group's index here is also its RNG stream id.
	groupList []fastGroup
	// comps is the flattened component storage shared by every group.
	// Groups address it by span, never by pointer: buildComps may grow
	// (and reallocate) it when the merge phase creates a group.
	comps []fastComp
	// compCache memoizes per-(set, site) component data.
	compCache map[compKey]*compData

	// Slot arena: public hosts sorted by address occupy [0, pubLen); each
	// NAT site follows as its own region sorted by private address. Every
	// victim pool is a span union over this layout, and a single live
	// index carries all per-host infection state — no per-host pool
	// registry, no pool mutation.
	arenaAddrs []ipv4.Addr
	arenaIDs   []int32
	idSlot     []int32
	pubLen     int32
	siteSpan   map[int]slotSpan
	live       *liveIndex

	// Rate-cache state. The per-group and per-component intensities live
	// in fastGroup and fastComp; a rebuild bumps rateStamp whenever an
	// infection changes the live set or the tick's delivery probability
	// moves, and the gate pass refreshes groups lazily against it. Every
	// shard reads the same exact floats, which is what makes outputs
	// bit-identical for every worker count.
	perHost       float64 // ScanRate × TickSeconds
	probesTotal   float64
	cachedDeliver float64
	rateValid     bool
	rateStamp     uint64 // rebuild counter, matching fresh compData caches
	// boundStamp is the rebuild at which the delivery probability last
	// moved: a λ computed before it bounds nothing.
	boundStamp uint64

	// The gate pass's output: this tick's firing groups in group order,
	// their summed λ, and its work counts.
	fire    []fastFire
	lamFire float64
	work    fastWork

	// Kill lists, double-buffered: killsNext accumulates the slots killed
	// since the last rate rebuild; the rebuild swaps it into killsTick,
	// sorted and indexed, where it stays for the whole tick so that every
	// pool the gate pass refreshes one rebuild late still takes
	// refreshCompLive's incremental branch.
	killsTick    []int32
	killsNext    []int32
	killBlockOff []int32 // per live-index block: kills below the block's first slot
}

// RunFast runs the aggregated simulation.
//
// Each tick opens with a serial gate pass: every group's first uniform is
// peeked from its own per-(group, tick) RNG stream and checked against the
// group's cached λ, and only groups that can fire are refreshed exactly
// and listed. Then two phases run over that list. Phase 1 shards the
// firing groups across cfg.Workers goroutines (one inline shard on a
// quiescent tick of at most fastSkipLambda expected arrivals); every group
// draws its tick's arrivals — the Poisson count, then a categorical
// component pick and a victim or sensor selection per arrival — from its
// stream, against the tick-start live index and the frozen intensity
// cache. Phase 2
// merges the buffered events serially in group order: duplicate victims
// resolve first-group-wins, exactly as a serial pass would. Results are
// byte-identical for every worker count (DESIGN.md §14).
func RunFast(cfg FastConfig) (*Result, error) {
	if g, err := graphTopology(cfg.Topology); err != nil {
		return nil, err
	} else if g != nil {
		return runFastGraph(cfg, g)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SensorSet != nil {
		// ipv4.Set builds its indexes lazily on first read. Freeze it now so
		// the phase-1 workers' concurrent reads are pure.
		cfg.SensorSet.Freeze()
	}
	st := &fastState{
		cfg:       cfg,
		pop:       cfg.Pop,
		groups:    make(map[uint64]int32),
		compCache: make(map[compKey]*compData),
		perHost:   cfg.ScanRate * cfg.TickSeconds,
	}
	st.indexHosts()

	n := cfg.Pop.Size()
	e := cfg.engine(n)
	e.metrics.attachFastWork(cfg.Metrics, "fast", cfg.MetricLabels)
	infTime := e.res.InfectionTime
	total := 0
	// infectSlot records an infection. Callers guarantee the slot is live.
	infectSlot := func(slot int32, t float64) {
		st.live.kill(int(slot))
		st.killsNext = append(st.killsNext, slot)
		id := st.arenaIDs[slot]
		infTime[id] = t
		total++
		h := st.pop.Host(int(id))
		key := cfg.Model.GroupKey(h)
		gi, ok := st.groups[key]
		if !ok {
			off, cnt := st.buildComps(h)
			gi = int32(len(st.groupList))
			st.groups[key] = gi
			st.groupList = append(st.groupList, fastGroup{off: off, n: cnt,
				idKey: rng.StreamIDKey(cfg.Seed, uint64(gi))})
		}
		g := &st.groupList[gi]
		g.infected++
		// More infected hosts probe more: the cached λ is no longer a bound.
		g.lam = math.Inf(1)
		st.rateValid = false
	}
	rec := cfg.Trace
	// compVec caches the per-component attribution labels ("c0", "c1", …)
	// so traced runs do not re-render them per infection.
	var compVec []string
	vecName := func(ci int32) string {
		for int(ci) >= len(compVec) {
			compVec = append(compVec, fmt.Sprintf("c%d", len(compVec)))
		}
		return compVec[ci]
	}

	// Degraded reporting interposes between the wire and Sensors: hits are
	// queued at observation time and delivered (possibly duplicated) when
	// the simulated clock passes their due time.
	recordHit := func(dst ipv4.Addr) {}
	if cfg.Sensors != nil {
		recordHit = cfg.Sensors.RecordHit
		if e.reporter = cfg.Faults.NewReporter(func(_, dst ipv4.Addr) { cfg.Sensors.RecordHit(dst) }); e.reporter != nil {
			recordHit = e.reporter.RecordHit
		}
	}

	baseDeliver := 1 - cfg.LossRate
	deliver := baseDeliver
	if c := cfg.Containment; c != nil {
		// The policy is per-run state: a reused one starts disengaged.
		c.engaged, c.EngagedAt = false, 0
		e.afterTick = func(t float64) {
			if !c.engaged && c.Trigger() {
				c.engaged = true
				c.EngagedAt = t
				deliver = baseDeliver * (1 - c.Drop)
			}
		}
	}
	ws := make([]fastWorker, e.workers)
	var burstLoss float64
	return e.run(tickDriver{
		seed: func(id int) uint32 {
			infectSlot(st.idSlot[id], 0)
			return uint32(st.pop.Host(id).Addr)
		},
		begin: func(step int, _, loss float64) (int, float64) {
			burstLoss = loss
			// The burst channel multiplies this tick's delivery
			// probability: expected hit counts shrink by the channel's
			// current loss exactly as the exact driver's per-probe
			// Bernoulli would on average.
			tickDeliver := deliver * (1 - burstLoss)
			//lint:ignore float-eq exact cache key: the cached rates were computed from this exact float, so == detects precisely the ticks that can reuse them
			if !st.rateValid || tickDeliver != st.cachedDeliver {
				st.rebuildRates(tickDeliver)
			}
			st.gate(step)
			return len(st.fire), st.lamFire
		},
		// Phase 1: draw the shard's firing groups against the tick-start
		// live index. Infections land in phase 2, so the workers' shared
		// reads are race-free.
		draw: func(wi, lo, hi int) {
			w := &ws[wi]
			shard := st.fire[lo:hi]
			var lam float64
			for _, f := range shard {
				lam += st.groupList[f.gi].lam
			}
			w.events = reserveEvents(w.events, lam)
			for _, f := range shard {
				w.events = st.drawGroup(&w.r, f, w.events)
			}
		},
		// Phase 2: replay the shards' events in group order. The live
		// index advances as infections land, so duplicate victims within
		// the tick resolve first-event-wins (hosts infected this tick
		// never probe before the next tick — same feedback rule as the
		// exact driver).
		merge: func(step int, t float64, shards int) TickInfo {
			var newInf int
			var sensorDraws, sensorDown uint64
			for wi := 0; wi < shards; wi++ {
				for _, ev := range ws[wi].events {
					if ev.slot >= 0 {
						if !st.live.test(int(ev.slot)) {
							continue // claimed earlier this tick
						}
						id := st.arenaIDs[ev.slot]
						infectSlot(ev.slot, t)
						newInf++
						rec.AppendInfection(step, t, -1, int(id), uint32(st.arenaAddrs[ev.slot]), vecName(ev.ci))
						continue
					}
					if cfg.Faults.SensorDown(ev.dst, t) {
						// Delivered to withdrawn monitored space: the wire
						// carried it but no sensor was listening.
						sensorDown++
						continue
					}
					sensorDraws++
					recordHit(ev.dst)
				}
			}
			probes, outcomes := closeFastTickOutcomes(st.probesTotal, newInf, sensorDraws, sensorDown, deliver, burstLoss)
			e.metrics.flushFastWork(st.work)
			return TickInfo{Time: t, Infected: total, NewInfections: newInf, Probes: probes, Outcomes: outcomes}
		},
	}, rng.NewXoshiro(cfg.Seed).SampleWithoutReplacement(n, cfg.SeedHosts), "fast"), nil
}

// reserveEvents returns buf emptied, with capacity for lam expected
// arrivals plus six standard deviations of Poisson slack. Late-epidemic
// ticks at internet scale draw tens of millions of arrivals; sizing the
// buffer from the expectation turns a doubling cascade of multi-hundred-
// megabyte reallocations into one allocation per high-water mark.
// Capacity is invisible to the draw streams, so outputs are unchanged.
func reserveEvents(buf []fastEvent, lam float64) []fastEvent {
	need := int(lam+6*math.Sqrt(lam)) + 32
	if cap(buf) >= need {
		return buf[:0]
	}
	return make([]fastEvent, 0, need)
}

// drawGroup consumes a firing group's tick RNG stream and appends its
// arrival events. The stream is keyed by (seed, group index, step) alone,
// so the draws are independent of which worker runs them. Draw
// discipline, in order: one rng.Poisson draw decides how many arrivals
// the group-tick has; then per arrival one categorical draw picks the
// component — categories in fixed order, infection then sensor per
// component — and one selection draw resolves the victim slot or sensor
// address.
func (st *fastState) drawGroup(r *rng.Xoshiro, f fastFire, out []fastEvent) []fastEvent {
	g := &st.groupList[f.gi]
	lam := g.lam
	r.SeedKey(f.key)
	// The gate pass listed the group because its first uniform exceeds
	// 1−λ at this same λ, so rng.Poisson's squeeze re-test consumes no
	// extra draw and never settles it.
	k := r.Poisson(lam)
	comps := st.comps[g.off : g.off+g.n]
	for ; k > 0; k-- {
		u := r.Float64() * lam
		pick := int32(-1)
		sensor := false
		c := 0.0
		for ci := range comps {
			if rr := comps[ci].rate; rr > 0 {
				c += rr
				pick, sensor = int32(ci), false
				if u <= c {
					break
				}
			}
			if rs := comps[ci].sens; rs > 0 {
				c += rs
				pick, sensor = int32(ci), true
				if u <= c {
					break
				}
			}
		}
		if pick < 0 {
			continue // unreachable: λ > 0 implies a positive category
		}
		comp := &comps[pick]
		if !sensor {
			j := r.Uint64n(uint64(comp.live))
			out = append(out, fastEvent{slot: int32(st.selectVictim(comp.data, int64(j))), ci: pick})
		} else {
			dst := comp.sensors.Select(r.Uint64n(comp.sensors.Size()))
			out = append(out, fastEvent{slot: -1, ci: pick, dst: dst})
		}
	}
	return out
}

// selectVictim resolves the j-th live slot of a span-union pool using the
// pool's cached live geometry: a scan of the cumulative counts picks the
// span, and the cached start rank turns the within-span index into a
// single global Fenwick select. The caller guarantees j is below the
// cached live pool size the arrival was priced with.
func (st *fastState) selectVictim(d *compData, j int64) int {
	for i, c := range d.cumLive {
		if j < c {
			if i > 0 {
				j -= d.cumLive[i-1]
			}
			return st.live.selectGlobal(int(d.rankLo[i] + j))
		}
	}
	panic("sim: victim index out of pool range")
}

// refreshCompLive advances one pool's live-geometry cache to the current
// live index. A pool that was refreshed at the previous rebuild needs only
// the kills applied since: rank(lo) drops by the kills below lo, and each
// span's live count by the kills inside it — integer identities on the
// rank function, so the result matches a from-scratch recompute exactly,
// with each kill count answered from the per-block kill table instead of
// a Fenwick rank. Pools built mid-run (stamp 0) or left unrefreshed for
// more than one rebuild take the full recompute.
func (st *fastState) refreshCompLive(d *compData) {
	if d.stamp+1 == st.rateStamp && cap(d.cumLive) >= len(d.spans) {
		kills := st.killsTick
		n := len(d.spans)
		if n == 0 || len(kills) == 0 || kills[0] >= d.spans[n-1].Hi {
			d.stamp = st.rateStamp
			return
		}
		var inside int64
		for i, sp := range d.spans {
			kl := st.killsBelow(sp.Lo)
			kh := st.killsBelow(sp.Hi)
			d.rankLo[i] -= int64(kl)
			inside += int64(kh - kl)
			d.cumLive[i] -= inside
		}
		d.liveCt -= inside
		d.stamp = st.rateStamp
		return
	}
	if cap(d.cumLive) < len(d.spans) {
		d.cumLive = make([]int64, len(d.spans))
		d.rankLo = make([]int64, len(d.spans))
	}
	d.cumLive = d.cumLive[:len(d.spans)]
	d.rankLo = d.rankLo[:len(d.spans)]
	var c int64
	for i, sp := range d.spans {
		rlo := int64(st.live.rank(int(sp.Lo)))
		d.rankLo[i] = rlo
		c += int64(st.live.rank(int(sp.Hi))) - rlo
		d.cumLive[i] = c
	}
	d.liveCt = c
	d.stamp = st.rateStamp
}

// indexKills sorts the tick's kill list and fills killBlockOff so that
// killBlockOff[b] counts the kills below slot b·liveBlockSlots. One pass
// here turns every killsBelow query during the tick's pool refreshes into
// a table load plus a scan of one (typically near-empty) block bucket —
// the queries run once per span per refreshed pool per tick, so they must
// not each binary-search.
func (st *fastState) indexKills() {
	slices.Sort(st.killsTick)
	nb := st.live.blocks + 1
	if cap(st.killBlockOff) < nb {
		st.killBlockOff = make([]int32, nb)
	}
	st.killBlockOff = st.killBlockOff[:nb]
	c := 0
	for b := 0; b < nb; b++ {
		for c < len(st.killsTick) && int(st.killsTick[c]) < b*liveBlockSlots {
			c++
		}
		st.killBlockOff[b] = int32(c)
	}
}

// killsBelow returns how many of this tick's kill slots are below pos.
// pos may equal the slot count.
func (st *fastState) killsBelow(pos int32) int {
	kills := st.killsTick
	b := int(pos) / liveBlockSlots
	if b >= len(st.killBlockOff) {
		return len(kills)
	}
	c := int(st.killBlockOff[b])
	for c < len(kills) && kills[c] < pos {
		c++
	}
	return c
}

// rebuildRates advances the rate cache to a new live index or delivery
// probability without recomputing any intensity. The recomputation is
// left to the gate pass, which refreshes only groups that can fire.
//
// That is exact because at a fixed delivery probability a group's λ can
// only fall between the group's own infections: pools only lose live
// hosts, and p·w·liveCt·deliver rounds monotonically, as does the
// fixed-order sum over categories. So a stale λ stays an upper bound.
// The bound breaks in two cases, and both force an exact refresh: a move
// of the delivery probability (first tick, containment, burst loss) voids
// every λ computed before it, and infectSlot sets λ = +Inf for a group
// that gains an infection or is created.
func (st *fastState) rebuildRates(tickDeliver float64) {
	st.rateStamp++
	// The kills recorded since the previous rebuild, sorted, drive the
	// incremental branch of refreshCompLive for every pool refreshed
	// during this tick.
	st.killsTick, st.killsNext = st.killsNext, st.killsTick[:0]
	st.indexKills()
	//lint:ignore float-eq exact cache key: the cached rates were computed from this exact float, so != detects precisely the moves that void them
	if tickDeliver != st.cachedDeliver {
		st.boundStamp = st.rateStamp
	}
	st.cachedDeliver = tickDeliver
	st.rateValid = true
}

// gate runs the tick's serial gate pass. Each group with a positive
// cached λ has its (group, tick) stream keyed and its first uniform u
// peeked — two hashes, no state expansion. For λ < 30, u ≤ 1−λ settles
// k = 0 exactly as drawGroup's squeeze would, and since 1−λ_stale ≤
// 1−λ_true the stale bound settles it too: the draws a settled group
// would have consumed are invisible, because every (group, tick) stream
// is fresh. Only a stale group the bound cannot settle is refreshed
// exactly and re-tested, so a tick costs O(groups) hashes plus
// O(firing groups × components) refresh work. The pass lists the firing
// groups in group order, and sums the tick's expected probes over all
// groups in that same order.
func (st *fastState) gate(step int) {
	stepKey := rng.StreamStepKey(uint64(step))
	st.fire = st.fire[:0]
	st.lamFire = 0
	st.probesTotal = 0
	st.work = fastWork{}
	inf := math.Inf(1)
	for gi := range st.groupList {
		g := &st.groupList[gi]
		st.probesTotal += float64(g.infected) * st.perHost
		lam := g.lam
		if g.stamp < st.boundStamp {
			lam = inf
		}
		if lam <= 0 {
			continue // a bound of 0 holds the true λ at 0
		}
		st.work.gated++
		key := rng.StreamKey(g.idKey, stepKey)
		u := rng.PeekFloat64(key)
		if lam < fastNormalLambda && u <= 1-lam {
			continue
		}
		if g.stamp != st.rateStamp {
			lam = st.refreshGroup(g)
			if lam <= 0 || (lam < fastNormalLambda && u <= 1-lam) {
				continue
			}
		}
		st.fire = append(st.fire, fastFire{gi: int32(gi), key: key})
		st.lamFire += lam
	}
	st.work.fired = uint64(len(st.fire))
}

// refreshGroup recomputes one group's intensities exactly against the
// current live index and delivery probability, and returns its λ. λ is
// summed in fixed category order (infection then sensor, per component,
// in component order) — the categorical scan in drawGroup accumulates
// the same terms in the same order, so the two agree bit-for-bit.
func (st *fastState) refreshGroup(g *fastGroup) float64 {
	st.work.refreshed++
	p := float64(g.infected) * st.perHost
	lam := 0.0
	comps := st.comps[g.off : g.off+g.n]
	for ci := range comps {
		comp := &comps[ci]
		if comp.data.stamp != st.rateStamp {
			st.refreshCompLive(comp.data)
		}
		liveCt := comp.data.liveCt
		comp.live = liveCt
		rr := 0.0
		if comp.weightOverSet > 0 && liveCt > 0 {
			rr = p * comp.weightOverSet * float64(liveCt) * st.cachedDeliver
		}
		comp.rate = rr
		lam += rr
		rs := 0.0
		if comp.pSensor > 0 {
			rs = p * comp.pSensor * st.cachedDeliver
		}
		comp.sens = rs
		lam += rs
	}
	g.lam = lam
	g.stamp = st.rateStamp
	return lam
}

// closeFastTickOutcomes closes one fast-driver tick's probe accounting.
// Infections, sensor hits, and sensor-down landings are the realized draws
// from the tick loop; the burst-loss and loss/containment shares are closed
// with their expectations, and delivered absorbs the residual. Realized
// Poisson draws are not bounded by the tick's expected probe count — in a
// small-probes tick they can overshoot it — so the probe total widens to
// the realized sum in that case, keeping the conservation invariant
// Outcomes.Total() == Probes unconditional.
func closeFastTickOutcomes(probes float64, newInf int, sensorDraws, sensorDown uint64, deliver, burstLoss float64) (uint64, OutcomeCounts) {
	var outcomes OutcomeCounts
	outcomes[OutcomeInfection] = uint64(newInf)
	outcomes[OutcomeSensorHit] = sensorDraws
	outcomes[OutcomeSensorDown] = sensorDown
	probesEmitted := uint64(probes)
	used := outcomes[OutcomeInfection] + outcomes[OutcomeSensorHit] + outcomes[OutcomeSensorDown]
	if used > probesEmitted {
		probesEmitted = used
	}
	rest := probesEmitted - used
	burstLost := uint64(probes*burstLoss + 0.5)
	if burstLost > rest {
		burstLost = rest
	}
	outcomes[OutcomeBurstLost] = burstLost
	rest -= burstLost
	filtered := uint64(probes*(1-burstLoss)*(1-deliver) + 0.5)
	if filtered > rest {
		filtered = rest
	}
	outcomes[OutcomeFiltered] = filtered
	outcomes[OutcomeDelivered] = rest - filtered
	return probesEmitted, outcomes
}

// indexHosts lays out the slot arena: public hosts sorted by address, then
// each NAT site as its own region sorted by private address. Public
// ordering uses a two-pass LSD radix sort — O(n) against the comparison
// sort's n·log n, which matters at 10⁸ hosts.
func (st *fastState) indexHosts() {
	n := st.pop.Size()
	st.idSlot = make([]int32, n)
	st.arenaAddrs = make([]ipv4.Addr, n)
	st.arenaIDs = make([]int32, n)
	siteMembers := make(map[int][]int32)
	pub := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		h := st.pop.Host(i)
		if h.IsNATed() {
			siteMembers[h.Site] = append(siteMembers[h.Site], int32(i))
			continue
		}
		pub = append(pub, uint64(h.Addr)<<32|uint64(uint32(i)))
	}
	radixSortByAddr(pub)
	for s, v := range pub {
		addr, id := ipv4.Addr(v>>32), int32(uint32(v))
		st.arenaAddrs[s] = addr
		st.arenaIDs[s] = id
		st.idSlot[id] = int32(s)
	}
	st.pubLen = int32(len(pub))
	sites := make([]int, 0, len(siteMembers))
	for site := range siteMembers {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	st.siteSpan = make(map[int]slotSpan, len(sites))
	next := st.pubLen
	for _, site := range sites {
		members := siteMembers[site]
		sort.Slice(members, func(i, j int) bool {
			return st.pop.Host(int(members[i])).Addr < st.pop.Host(int(members[j])).Addr
		})
		lo := next
		for _, id := range members {
			st.arenaAddrs[next] = st.pop.Host(int(id)).Addr
			st.arenaIDs[next] = id
			st.idSlot[id] = next
			next++
		}
		st.siteSpan[site] = slotSpan{Lo: lo, Hi: next}
	}
	st.live = newLiveIndex(n)
}

// radixSortByAddr sorts packed (addr<<32 | id) entries by address (ties by
// id) with a two-pass LSD counting sort over the address halves. Small
// inputs fall back to a comparison sort.
func radixSortByAddr(v []uint64) {
	if len(v) < 1<<12 {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return
	}
	tmp := make([]uint64, len(v))
	counts := make([]int, 1<<16)
	for pass := 0; pass < 2; pass++ {
		shift := uint(32 + 16*pass)
		for i := range counts {
			counts[i] = 0
		}
		for _, x := range v {
			counts[(x>>shift)&0xffff]++
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, x := range v {
			b := (x >> shift) & 0xffff
			tmp[counts[b]] = x
			counts[b]++
		}
		copy(v, tmp)
	}
}

// buildComps materializes the fast components for a host's group into the
// shared flattened comps slice, returning the group's [off, off+n) span.
func (st *fastState) buildComps(h population.Host) (off, n int32) {
	comps := st.cfg.Model.Components(h)
	off = int32(len(st.comps))
	for _, c := range comps {
		site := population.NoSite
		if c.Private {
			site = h.Site
		}
		data := st.compDataFor(c.Set, site)
		setSize := float64(data.setSize)
		fc := fastComp{data: data}
		if setSize > 0 {
			fc.weightOverSet = c.Weight / setSize
		}
		if !c.Private && st.cfg.Sensors != nil && data.sensorSize > 0 && setSize > 0 {
			fc.pSensor = c.Weight * float64(data.sensorSize) / setSize
			fc.sensors = data.sensorInter
		}
		st.comps = append(st.comps, fc)
	}
	return off, int32(len(st.comps)) - off
}

// compDataFor computes (and caches) the pool spans and sensor intersection
// for a component set, optionally restricted to one NAT site. Spans cover
// every host in the set regardless of infection state — liveness lives in
// the shared index — so the result is immutable.
func (st *fastState) compDataFor(set *ipv4.Set, site int) *compData {
	key := compKey{set: set, site: site}
	if d, ok := st.compCache[key]; ok {
		return d
	}
	d := &compData{setSize: set.Size()}
	region := slotSpan{Lo: 0, Hi: st.pubLen}
	eff := set
	if site != population.NoSite {
		// Private component: the site's own arena region; every address in
		// it is reachable (hard blocks apply to Internet paths only).
		region = st.siteSpan[site]
	} else if st.cfg.BlockedDst != nil {
		eff = set.Subtract(st.cfg.BlockedDst)
	}
	d.spans = ipv4World.VictimSpans(st.arenaAddrs[region.Lo:region.Hi], region.Lo, eff, d.spans)
	if site == population.NoSite && st.cfg.Sensors != nil && st.cfg.SensorSet != nil {
		// Phase-1 workers Select from the embedded set concurrently;
		// EmbedSensors freezes its lazy indexes while construction is
		// still serial.
		inter := ipv4World.EmbedSensors(st.cfg.SensorSet, set, st.cfg.BlockedDst)
		d.sensorInter = inter
		d.sensorSize = inter.Size()
	}
	st.compCache[key] = d
	return d
}
