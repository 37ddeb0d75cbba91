package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/xcheck"
)

// Serve-mix shape: serveClients closed-loop clients each submit serveItems
// scenarios per pass. One
// item in eight re-submits a scenario the same client already finished
// (served from the result cache) and one in eight is submitted twice back
// to back (the second submission joins the running job). Both choices
// stay with one client, so the cached/coalesced split is the same on
// every pass.
const (
	serveClients = 2
	serveItems   = 96
	serveTimeout = time.Minute
)

// serveItem is one closed-loop step of a client: submit sc (twice when
// dup) and wait for its result.
type serveItem struct {
	sc  xcheck.Scenario
	dup bool
}

// serveRunner drives an in-process serve.Server with a durable state
// directory. Every pass gets a fresh server, so every pass runs the same
// fresh, coalesced and cached submissions.
type serveRunner struct {
	root    string
	clients [][]serveItem
	workers int
	srv     *serve.Server
	reg     *obs.Registry
	gen     int
	tr      *tracer
}

// setupServe builds the submission lists and a server with one worker per
// client, capped at GOMAXPROCS. The client count is fixed, so the job list
// (and its committed digests) does not depend on the host.
func setupServe(seed uint64, tr *tracer) (runner, error) {
	s := &serveRunner{
		root:    filepath.Join(buildDir, fmt.Sprintf("serve-%d", os.Getpid())),
		clients: serveLists(seed, serveClients),
		workers: min(serveClients, runtime.GOMAXPROCS(0)),
		tr:      tr,
	}
	if err := s.reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// serveLists builds each client's fixed submission list. Scenario shapes
// come from xcheck.Generate over a fixed id range, so every seed submits
// the same mix of worm families and sizes; the seed re-draws every
// scenario's randomness (population, placement, faults and run). Fresh
// ids from the seed instead would move a pass's work by up to a quarter
// between seeds, since a few hit-list shapes cost 100x the median.
func serveLists(seed uint64, clients int) [][]serveItem {
	r := rng.NewXoshiroStream(seed, 0x7365727665, 0) // "serve"
	id := uint64(1)
	lists := make([][]serveItem, clients)
	for c := range lists {
		var fresh []xcheck.Scenario
		for i := 0; i < serveItems; i++ {
			if i%8 == 3 && len(fresh) > 0 {
				lists[c] = append(lists[c], serveItem{sc: fresh[r.Intn(len(fresh))]})
				continue
			}
			sc := reseed(xcheck.Generate(id), r)
			id++
			fresh = append(fresh, sc)
			lists[c] = append(lists[c], serveItem{sc: sc, dup: i%8 == 7})
		}
	}
	return lists
}

// reseed redraws a generated scenario's seeds and pins its exact driver to
// one worker, so a job never starts more goroutines than the host has
// cores; results are byte-identical for every worker count.
func reseed(sc xcheck.Scenario, r *rng.Xoshiro) xcheck.Scenario {
	sc.Workers = 1
	sc.SimSeed = r.Uint64()
	for _, s := range []*uint64{&sc.PopSeed, &sc.NATSeed, &sc.SensorSeed, &sc.GraphSeed} {
		if *s != 0 { // zero means the dimension is unused
			*s = r.Uint64()
		}
	}
	if sc.Faults != nil {
		f := *sc.Faults
		f.Seed = r.Uint64()
		sc.Faults = &f
	}
	return sc
}

// reset replaces the server with a fresh one over an empty state
// directory.
func (s *serveRunner) reset() error {
	if err := s.close(); err != nil {
		return err
	}
	s.gen++
	dir := filepath.Join(s.root, fmt.Sprint(s.gen))
	s.reg = obs.NewRegistry()
	sp := s.tr.begin("serve.new", -1, -1)
	srv, err := serve.New(serve.Config{Dir: dir, Workers: s.workers, Metrics: s.reg})
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *serveRunner) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Drain(serveTimeout)
	s.srv = nil
	if rerr := os.RemoveAll(s.root); err == nil {
		err = rerr
	}
	return err
}

// pass runs every client's list as a closed loop: a client submits, waits
// for the result, and only then submits its next item.
func (s *serveRunner) pass(tr *tracer, parent int) ([]jobResult, map[string]float64) {
	results := make([][]jobResult, len(s.clients))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.client(tr, parent, c)
		}(c)
	}
	wg.Wait()
	var jobs []jobResult
	for _, r := range results {
		jobs = append(jobs, r...)
	}
	if tr == nil {
		return jobs, nil
	}
	sub := func(result string) float64 {
		return float64(s.reg.Counter("serve_submit_total", "result", result).Value())
	}
	runs := float64(s.reg.Counter("serve_runs_total").Value())
	submits := sub("accepted") + sub("coalesced") + sub("cached_mem") + sub("cached_disk") + sub("shed")
	return jobs, map[string]float64{
		"serve.runs":            runs,
		"serve.coalesced":       sub("coalesced"),
		"serve.cached":          sub("cached_mem") + sub("cached_disk"),
		"serve.shed":            sub("shed"),
		"serve.runs_per_submit": runs / submits,
	}
}

// client runs one client's list; its jobs are numbered c*2*serveItems+k so
// ids stay unique across clients.
func (s *serveRunner) client(tr *tracer, parent, c int) []jobResult {
	var jobs []jobResult
	for _, it := range s.clients[c] {
		job := c*2*serveItems + len(jobs)
		js := tr.begin("serve.job", parent, job)
		t0 := time.Now()
		id, err := s.submit(tr, js, job, it.sc)
		var dupStart time.Time
		if err == nil && it.dup {
			dupStart = time.Now()
			_, err = s.submit(tr, js, job+1, it.sc)
		}
		var body []byte
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
			ws := tr.begin("serve.result_wait", js, job)
			body, err = s.srv.Result(ctx, id)
			tr.end(ws)
			cancel()
		}
		end := time.Now()
		tr.end(js)
		r := jobResult{ms: ms(end.Sub(t0)), err: err}
		if err == nil {
			r.digest = digestBody(body)
		}
		jobs = append(jobs, r)
		if it.dup {
			r.ms = ms(end.Sub(dupStart))
			jobs = append(jobs, r)
		}
	}
	return jobs
}

func (s *serveRunner) submit(tr *tracer, parent, job int, sc xcheck.Scenario) (string, error) {
	sp := tr.begin("serve.submit", parent, job)
	id, _, err := s.srv.Submit(sc)
	tr.end(sp)
	if errors.Is(err, serve.ErrQueueFull) {
		err = fmt.Errorf("shed (429): %w", err)
	}
	return id, err
}

// replay re-runs each distinct scenario outside the server, timing the
// engine (xcheck.RunScenario) apart from the encoding (serve.ResultNDJSON),
// and checks the bytes against a pass's served jobs. It returns the number
// of scenarios that fail or whose bytes differ.
func (s *serveRunner) replay(tr *tracer, jobs []jobResult) int {
	bad := 0
	seen := make(map[string]bool)
	k := 0
	for _, list := range s.clients {
		for _, it := range list {
			served := jobs[k].digest
			k++
			if it.dup {
				k++
			}
			id := serve.ScenarioID(it.sc.JSON())
			if seen[id] {
				continue
			}
			seen[id] = true
			sp := tr.begin("xcheck.run_scenario", -1, k)
			res, err := xcheck.RunScenario(context.Background(), it.sc)
			tr.end(sp)
			if err != nil {
				bad++
				continue
			}
			sc := it.sc
			sp = tr.begin("serve.encode", -1, k)
			body := serve.ResultNDJSON(id, &sc, res)
			tr.end(sp)
			if digestBody(body) != served {
				bad++
			}
		}
	}
	return bad
}

func digestBody(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
