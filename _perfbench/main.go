// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed wall-clock budget, checks every job's output, and prints its
// metrics by name and unit; the last line of standard output is one JSON
// object. See README.md for the workloads and metrics.
//
//	bash _perfbench/run.sh --workload crii-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced passes, records a span around every call
// it makes into the program, writes the spans to .bench_build/ at exit, and
// reports per-layer metrics plus the tracing overhead.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// buildDir holds everything the benchmark leaves behind, relative to the
// checkout root run.sh starts it from.
const buildDir = ".bench_build"

// defaultSeed is the seed whose job digests are committed in digests.json.
const defaultSeed = 1

//go:embed digests.json
var committedDigests []byte

// runner runs one workload's fixed job list against a world or server
// built once.
type runner interface {
	// reset prepares the next pass; it is not timed.
	reset() error
	// pass runs the job list once. Spans go to tr (nil when untraced),
	// under parent. When traced it also returns the pass's work counts.
	pass(tr *tracer, parent int) ([]jobResult, map[string]float64)
	close() error
}

// jobResult is one job: the latency of its timed call into the program, a
// digest of its output, and its error.
type jobResult struct {
	ms     float64
	digest string
	err    error
}

// workload is one benchmark input set.
type workload struct {
	setup func(seed uint64, tr *tracer) (runner, error)
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// Set-ups that take milliseconds repeat more often, so their median holds
// still under scheduler and file-system noise.
var workloads = map[string]workload{
	"crii-paper":    {setupCRII, 51},
	"wifi-graph":    {setupWifi, 5},
	"serve-mix":     {setupServe, 51},
	"paper-figures": {setupFigures, 1},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "crii-paper, wifi-graph, serve-mix or paper-figures")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "timed duration of the run")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	writeDigests := flag.Bool("write-digests", false, "store this seed's job digests in _perfbench/digests.json")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *writeDigests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// passStats is one timed pass.
type passStats struct {
	traced            bool
	wall, cpu         float64 // seconds
	allocMB, gcCycles float64
	rssMB             float64 // peak resident set during the pass
	counts            map[string]float64
}

func run(name string, w workload, seed uint64, budget time.Duration, traced, writeDigests bool) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%v trace=%v gomaxprocs=%d %s\n",
		name, seed, budget.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())

	var r runner
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = w.setup(seed, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer r.close()

	// Untimed warm-up pass; its digests are the reference every timed pass
	// must reproduce.
	if err := r.reset(); err != nil {
		return nil, err
	}
	ref, _ := r.pass(nil, -1)
	failed := 0
	want, err := loadDigests(name, seed, len(ref))
	if err != nil {
		return nil, err
	}
	for i, j := range ref {
		if j.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: warm-up job %d: %v\n", i, j.err)
		} else if want != nil && j.digest != want[i] {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: warm-up job %d: digest %s, committed %s\n", i, j.digest, want[i])
		}
	}
	if writeDigests {
		if err := storeDigests(name, ref); err != nil {
			return nil, err
		}
	}

	var passes []passStats
	var lat []float64
	attempted := 0
	correct := failed == 0
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		if err := r.reset(); err != nil {
			return nil, err
		}
		p := passStats{traced: traced && i%2 == 1}
		var ptr *tracer
		if p.traced {
			ptr = tr
		}
		// Return the previous pass's garbage to the OS, so the pass's peak
		// RSS does not depend on when the scavenger last ran.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		alloc0, gc0 := readRuntime()
		cpu0 := cpuSeconds()
		ps := ptr.begin("pass", -1, -1)
		t0 := time.Now()
		jobs, counts := r.pass(ptr, ps)
		p.wall = time.Since(t0).Seconds()
		ptr.end(ps)
		p.cpu = cpuSeconds() - cpu0
		if p.rssMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		alloc1, gc1 := readRuntime()
		p.allocMB, p.gcCycles, p.counts = (alloc1-alloc0)/(1<<20), gc1-gc0, counts
		passes = append(passes, p)
		for k, j := range jobs {
			attempted++
			if j.err != nil || j.digest != ref[k].digest {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: pass %d job %d: digest %s want %s, err %v\n", i, k, j.digest, ref[k].digest, j.err)
				continue
			}
			if !p.traced {
				lat = append(lat, j.ms)
			}
		}
	}
	rep := &report{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	if !traced {
		var wall, cpu, rss []float64
		for _, p := range passes {
			wall = append(wall, p.wall)
			cpu = append(cpu, p.cpu)
			rss = append(rss, p.rssMB)
		}
		sort.Float64s(lat)
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["pass_s"] = metric{median(wall), "s"}
		rep.Metrics["cpu_s"] = metric{median(cpu), "s"}
		rep.Metrics["job_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		rep.Metrics["job_p95_ms"] = metric{quantile(lat, 0.95), "ms"}
		rep.Metrics["max_rss_mb"] = metric{median(rss), "MB"}
		fmt.Printf("# passes=%d jobs=%d setups=%d jobs_beyond_p95=%d\n",
			len(passes), len(lat), len(setups), len(lat)-int(math.Ceil(0.95*float64(len(lat)))))
	} else {
		correct = layerMetrics(rep, r, tr, passes, ref) && correct
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.ndjson", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans=%d written to %s\n", len(tr.spans), path)
		self := tr.selfByName()
		for _, name := range sortedKeys(self) {
			v := self[name]
			total := 0.0
			for _, x := range v {
				total += x
			}
			fmt.Printf("# span %-24s n=%-5d self median %.4f ms, total %.1f ms\n", name, len(v), median(v), total)
		}
	}
	rep.Correct = correct && failed == 0
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Printf("%-32s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// layerMetrics fills the per-layer metrics of a traced run. Counts must
// repeat exactly on every traced pass; it reports false when they do not,
// or when a serve-mix replay differs from the served bytes.
func layerMetrics(rep *report, r runner, tr *tracer, passes []passStats, ref []jobResult) bool {
	ok := true
	var plain, traced, alloc, gc []float64
	var counts map[string]float64
	for _, p := range passes {
		alloc = append(alloc, p.allocMB)
		gc = append(gc, p.gcCycles)
		if !p.traced {
			plain = append(plain, p.wall)
			continue
		}
		traced = append(traced, p.wall)
		if counts != nil && !equalCounts(counts, p.counts) {
			fmt.Fprintf(os.Stderr, "perfbench: counts differ between passes: %v vs %v\n", counts, p.counts)
			ok = false
		}
		counts = p.counts
	}
	if s, isServe := r.(*serveRunner); isServe {
		if bad := s.replay(tr, ref); bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d scenarios differ from their served bytes\n", bad)
			ok = false
		}
	}
	self := tr.selfByName()
	add := func(k string, v float64, unit string) { rep.Metrics[k] = metric{v, unit} }
	med := func(span string) float64 { return median(self[span]) }
	add("population.synthesize_s", med("population.synthesize")/1000, "s")
	add("proxgraph.new_s", med("proxgraph.new")/1000, "s")
	add("serve.new_s", med("serve.new")/1000, "s")
	add("sim.run_fast_ms", med("sim.run_fast"), "ms")
	add("sim.run_fast_graph_ms", med("sim.run_fast_graph"), "ms")
	add("serve.submit_ms", med("serve.submit"), "ms")
	wait := append([]float64(nil), self["serve.result_wait"]...)
	sort.Float64s(wait)
	add("serve.result_wait_p50_ms", quantile(wait, 0.50), "ms")
	add("serve.result_wait_p95_ms", quantile(wait, 0.95), "ms")
	add("xcheck.run_scenario_ms", med("xcheck.run_scenario"), "ms")
	add("serve.encode_ms", med("serve.encode"), "ms")
	for _, id := range paperFigures {
		add("experiments."+id+"_ms", med("experiments."+id), "ms")
	}
	add("bench.harness_ms", med("pass"), "ms")
	for _, k := range []string{"sim.ticks", "sim.probes", "sim.infected", "serve.runs", "serve.coalesced", "serve.cached", "serve.shed"} {
		add(k, counts[k], "count")
	}
	add("serve.runs_per_submit", counts["serve.runs_per_submit"], "ratio")
	add("runtime.alloc_mb", median(alloc), "MB")
	add("runtime.gc_cycles", median(gc), "count")
	add("trace.overhead", median(traced)/median(plain), "ratio")
	return ok
}
