package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"repro/internal/experiments"
)

// paperFigures are the paper's own tables and figures, regenerated in
// this order every pass.
var paperFigures = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c"}

// figureRunner regenerates the paper's tables and figures at Quick scale,
// serially.
type figureRunner struct{ seed uint64 }

// setupFigures has no world to build: every experiment builds its own. Its
// set-up is the first, cold regeneration that a fresh process pays for
// heap growth and lazily built tables, so the runner does one pass here.
func setupFigures(seed uint64, tr *tracer) (runner, error) {
	f := &figureRunner{seed: seed}
	jobs, _ := f.pass(tr, -1)
	for _, j := range jobs {
		if j.err != nil {
			return nil, j.err
		}
	}
	return f, nil
}

func (f *figureRunner) reset() error { return nil }
func (f *figureRunner) close() error { return nil }

func (f *figureRunner) pass(tr *tracer, parent int) ([]jobResult, map[string]float64) {
	jobs := make([]jobResult, len(paperFigures))
	for i, id := range paperFigures {
		sp := tr.begin("experiments."+id, parent, i)
		t0 := time.Now()
		res, err := experiments.Run(id, f.seed, experiments.Quick)
		jobs[i].ms = ms(time.Since(t0))
		tr.end(sp)
		if err == nil {
			jobs[i].digest = digestFigure(res)
		}
		jobs[i].err = err
	}
	return jobs, nil
}

// digestFigure hashes a figure's metrics (in sorted key order), its table
// cells and its series points.
func digestFigure(res *experiments.Result) string {
	h := sha256.New()
	var buf [8]byte
	putFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		putFloat(res.Metrics[k])
	}
	for _, t := range res.Tables {
		for _, row := range t.Rows {
			for _, cell := range row {
				h.Write([]byte(cell))
				h.Write([]byte{0})
			}
		}
	}
	for _, fig := range res.Figures {
		for _, s := range fig.Series {
			for i := range s.X {
				putFloat(s.X[i])
				putFloat(s.Y[i])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
