package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

// sweepCycles is the cycle count of every Fig. 7 point. It is short on
// purpose: ~290 points of under ten milliseconds each keep per-point
// set-up (spin.New, routing tables), runner.Run scheduling and the
// workers mechanism visible — sim_sat bypasses all three — and let a
// dozen whole figures fit one run, so that one of them meets a quiet
// spell on a shared box (see best in measure.go).
const sweepCycles = 100

// sweepPass is one regeneration of the figure.
type sweepPass struct {
	sweep, encode float64 // wall (s) of exp.Sweep and of exp.EncodeJSON
	// jobs is each runner job's own execution time (s), by job index, as
	// Options.Progress reports it.
	jobs   []float64
	points int
	sha    string
}

// utilisation is the share of the workers' time the jobs kept busy:
// Σ job time ÷ (workers × Sweep wall).
func (p sweepPass) utilisation() float64 {
	return sum(p.jobs) / (loadGoroutines * p.sweep)
}

// runSweepPass regenerates Fig. 7 once: exp.Sweep then exp.EncodeJSON,
// the two calls behind `spinsweep -fig 7 -full -json`. Job times come
// from Options.Progress; with a recorder every job is also a span.
func runSweepPass(req exp.SweepRequest, rec *recorder) (sweepPass, error) {
	var p sweepPass
	o := req.Options()
	o.Workers = loadGoroutines
	passSpan := rec.begin("sweep_pass", -1)
	sweepSpan := rec.begin("exp.Sweep", passSpan)
	o.Progress = func(e runner.Event) {
		if p.jobs == nil {
			p.jobs = make([]float64, e.Total)
		}
		p.jobs[e.Index] = e.Elapsed.Seconds()
		if rec != nil {
			end := time.Now()
			rec.add("runner.job:"+e.Key, end.Add(-e.Elapsed), end, sweepSpan)
		}
	}
	t0 := time.Now()
	v, err := exp.Sweep(context.Background(), req.Fig, o)
	p.sweep = time.Since(t0).Seconds()
	rec.end(sweepSpan)
	if err != nil {
		return p, err
	}
	var buf bytes.Buffer
	encSpan := rec.begin("exp.EncodeJSON", passSpan)
	t0 = time.Now()
	err = exp.EncodeJSON(&buf, v)
	p.encode = time.Since(t0).Seconds()
	rec.end(encSpan)
	rec.end(passSpan)
	if err != nil {
		return p, err
	}
	for _, f := range v.(exp.Figures) {
		for _, s := range f.Series {
			p.points += len(s.Points)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	p.sha = hex.EncodeToString(sum[:])
	return p, nil
}

// bestJobs is each runner job's time (s), by job index, at its best over
// the passes: a job is identical work in every pass (see best in
// measure.go).
func bestJobs(passes []sweepPass) []float64 {
	var jobs []float64
	for _, p := range passes {
		jobs = bestPieces(jobs, p.jobs)
	}
	return jobs
}

// undisturbed estimates the wall time (s) of one pass on a quiet box. A
// pass's Sweep wall is, by the definition of utilisation, Σ job time ÷
// (workers × utilisation); each job enters at its best, and utilisation —
// a ratio, which a slowdown common to both workers leaves alone — at its
// median. A whole pass needs most of a second of quiet on both cores to
// be timed undisturbed; a job needs ~25 ms on one.
func undisturbed(passes []sweepPass) float64 {
	var util, encode []float64
	for _, p := range passes {
		util = append(util, p.utilisation())
		encode = append(encode, p.encode)
	}
	return sum(bestJobs(passes))/(loadGoroutines*median(util)) + best(encode)
}

// runSweep runs the sweep_fig7 workload.
func runSweep(c config) (*outcome, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	// Below full size (the package test) the figure's scaled-down
	// topologies stand in for the paper's.
	req := exp.SweepRequest{Fig: "7", Full: c.scale >= 1, Cycles: c.cycles(sweepCycles), Seed: c.seed}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	setupS, err := repeatSetup(func() error {
		// Warm-up: the same figure at half the cycles, discarded.
		warm := req
		warm.Cycles = max(req.Cycles/2, 50)
		_, err := runSweepPass(warm, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS

	var first sweepPass
	pass := func(n int, rec *recorder, m *meter, keep *[]sweepPass) error {
		if m != nil {
			m.start()
		}
		p, err := runSweepPass(req, rec)
		if err != nil {
			return err
		}
		if m != nil {
			m.stop()
		}
		runtime.GC() // every pass starts from an empty heap
		o.op("")
		switch {
		case n == 0 && rec == nil:
			first = p
			c.checkDigest(o, want, "sweep_fig7", p.sha)
		case p.sha != first.sha:
			o.fail(fmt.Sprintf("sweep_fig7: JSON sha256 %s differs from the first pass's %s", p.sha, first.sha))
		}
		*keep = append(*keep, p)
		return nil
	}

	var m meter
	var plain []sweepPass
	if err := runPasses(c.budget(), func(n int) error { return pass(n, nil, &m, &plain) }); err != nil {
		return nil, err
	}
	wall := undisturbed(plain)
	o.e2e["work_per_s"] = float64(first.points) / wall
	// A runner job (one curve of the figure) is the op a worker's caller
	// waits for; neither latency depends on utilisation. The slow op is the
	// 90th-percentile job, not the longest: over 22 runs across both states
	// of the box the longest spread 21 % against the 90th percentile's 17 %
	// and the median's 16 %.
	jobs := bestJobs(plain)
	o.e2e["slow_op_ms"] = percentile(jobs, 0.9) * 1e3
	o.e2e["op_ms"] = median(jobs) * 1e3
	o.e2e["alloc_b_per_work"] = float64(m.allocBytes) / float64(first.points*len(plain))
	o.layer["exp.points"] = float64(first.points)
	c.checkCount(o, want, "exp.points", int64(first.points))
	if !c.traced {
		return o, nil
	}

	rec := newRecorder(time.Now(), 1<<10)
	var traced []sweepPass
	if err := runPasses(c.budget(), func(n int) error { return pass(n, rec, nil, &traced) }); err != nil {
		return nil, err
	}
	var jobMs, util, encode []float64
	for _, p := range traced {
		encode = append(encode, p.encode*1e3)
		util = append(util, p.utilisation())
		for _, j := range p.jobs {
			jobMs = append(jobMs, j*1e3)
		}
	}
	o.layer["runner.jobs"] = float64(len(jobs))
	c.checkCount(o, want, "runner.jobs", int64(len(jobs)))
	o.layer["runner.job_ms_p50"] = percentile(jobMs, 0.5)
	o.layer["runner.job_ms_p95"] = percentile(jobMs, 0.95)
	o.layer["runner.worker_utilisation"] = median(util)
	o.layer["exp.ms_per_point"] = undisturbed(traced) * 1e3 / float64(first.points)
	o.layer["exp.encode_ms"] = best(encode)
	o.layer["bench.trace_overhead_ratio"] = undisturbed(traced) / wall
	return o, writeTrace(c.outDir, "sweep_fig7", c.seed, "", 0, rec)
}
