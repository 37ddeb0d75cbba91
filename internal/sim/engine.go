package sim

import (
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// tickDriver is what one driver supplies to the shared tick loop. Every
// hook but draw runs serially.
type tickDriver struct {
	// seed infects host id at time 0 and returns its trace address.
	seed func(id int) uint32
	// begin prepares a tick and returns its number of phase-1 work items
	// and its expected draws over all of them.
	begin func(step int, t, burstLoss float64) (items int, load float64)
	// draw is phase 1 for shard wi over work items [lo, hi): shards run
	// concurrently against the tick-start state, each writing only its
	// own buffers.
	draw func(wi, lo, hi int)
	// merge is phase 2: it folds shards 0..shards-1 in order into the run
	// state and returns the tick's summary.
	merge func(step int, t float64, shards int) TickInfo
}

// fastSkipLambda is the load at or below which phase 1 runs as one inline
// shard: for the fast drivers, a quiescent tick of at most one expected
// arrival. Every work item draws from its own (item, tick) stream and the
// merge visits items in order, so the shard count affects speed, never
// output.
const fastSkipLambda = 1.0

// tickEngine is the SI tick loop every driver runs through: the clock,
// fault bookkeeping, phase-1 dispatch, tick close (series, trace, metrics)
// and the stop conditions.
type tickEngine struct {
	workers     int
	tickSeconds float64
	steps       int
	clock       *obs.SimClock
	rec         *trace.Recorder
	plan        *faults.Plan
	onTick      func(TickInfo) bool
	stopWhen    int
	metrics     *simMetrics
	// reporter, when set, is advanced every tick and drained at the end.
	reporter *faults.Reporter
	// afterTick, when set, runs after every tick that did not stop the run.
	afterTick func(t float64)
	res       *Result
}

// newTickEngine completes e for a world of hosts hosts: it resolves the
// worker count (≤ 0 means GOMAXPROCS), allocates the result with every
// infection time at -1, and registers the run's metrics.
func newTickEngine(e tickEngine, hosts int, reg *obs.Registry, driver string, labels []string) *tickEngine {
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	infTime := make([]float64, hosts)
	for i := range infTime {
		infTime[i] = -1
	}
	e.res = &Result{InfectionTime: infTime, Series: make([]TickInfo, 0, e.steps)}
	e.metrics = newSimMetrics(reg, e.plan, driver, labels)
	return &e
}

// run infects seeds, steps the epidemic to the horizon or a stop
// condition, and returns the result. detail names the driver in the
// trace's phase events.
func (e *tickEngine) run(d tickDriver, seeds []int, detail string) *Result {
	rec := e.rec
	rec.Append(trace.Event{Tick: 0, T: 0, Kind: trace.KindPhase, Agent: -1, Victim: -1, Vector: "start", Detail: detail})
	for _, id := range seeds {
		rec.AppendInfection(0, 0, -1, id, d.seed(id), "seed")
	}
	res, steps := e.res, e.steps
	var faultCursor faults.TraceCursor
	for step := 1; step <= steps; step++ {
		t := float64(step) * e.tickSeconds
		e.clock.Set(t)
		if e.reporter != nil {
			e.reporter.Advance(t)
		}
		faultCursor.Observe(rec, e.plan, step, t)
		items, load := d.begin(step, t, e.plan.BurstLoss(t))
		workers := e.workers
		if load <= fastSkipLambda {
			workers = 1
		}
		info := d.merge(step, t, runShards(workers, items, d.draw))

		res.Series = append(res.Series, info)
		res.Final = info
		res.Outcomes.Merge(info.Outcomes)
		if rec != nil {
			rec.Append(trace.Event{Tick: step, T: t, Kind: trace.KindProbes, Agent: -1, Victim: -1,
				N: info.Probes, Detail: info.Outcomes.String()})
		}
		e.metrics.flushTick(info)
		e.metrics.flushFaults(e.plan, t)
		if e.onTick != nil && !e.onTick(info) {
			break
		}
		if e.stopWhen > 0 && info.Infected >= e.stopWhen {
			break
		}
		if e.afterTick != nil {
			e.afterTick(t)
		}
	}
	if e.reporter != nil {
		// End of run: deliver everything still in flight so detection sees
		// every observation exactly as a real collector drain would.
		e.reporter.Flush()
	}
	rec.Append(trace.Event{Tick: len(res.Series), T: res.Final.Time, Kind: trace.KindPhase,
		Agent: -1, Victim: -1, Vector: "end", Detail: detail, N: uint64(res.Final.Infected)})
	return res
}

// runShards splits work items [0, n) into contiguous shards, one per
// worker up to n, and runs draw on each: inline when there is one shard,
// on goroutines otherwise, returning once all are done. It returns the
// shard count, at least 1. Merging shards in index order therefore visits
// the items in order, as one serial pass would.
func runShards(workers, n int, draw func(wi, lo, hi int)) int {
	shards := min(workers, n)
	if shards <= 1 {
		draw(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	for wi := 0; wi < shards; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			draw(wi, wi*n/shards, (wi+1)*n/shards)
		}(wi)
	}
	wg.Wait()
	return shards
}
