package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/markov"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fig5Windows is the per-panel window count of the committed Figure 5
// CSVs (figures/fig5_*.csv, generated with paperfigs -windows 40).
const fig5Windows = 40

// fig5Jobs is one cycle: 8 panels of fig5Windows windows.
const fig5Jobs = 8 * fig5Windows

// fig5WarmupJobs is the fixed untimed warm-up: the first jobs of the
// sequence, run once during set-up.
const fig5WarmupJobs = 64

// fig5CaptureEvery samples one decision window in this many for the
// trace/markov layer timings of a traced run.
const fig5CaptureEvery = 8

// fig5Panel is one Figure 5 panel: a (regime, slack, t_c) cell.
type fig5Panel struct {
	regime string
	slack  float64
	tc     int64
}

// goldenPath is the committed CSV of the panel.
func (p fig5Panel) goldenPath() string {
	return filepath.Join("figures", fmt.Sprintf("fig5_%s_slack%.0f_tc%d.csv", p.regime, p.slack*100, p.tc))
}

// fig5Job is one Figure 5 job: a window of a panel.
type fig5Job struct {
	panel  int
	window int
	cfg    sim.Config
}

// fig5Panels lists the eight panels in the paper's (a)–(h) order.
func fig5Panels() []fig5Panel {
	var out []fig5Panel
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			for _, tc := range experiment.CheckpointCosts {
				out = append(out, fig5Panel{regime, slack, tc})
			}
		}
	}
	return out
}

// fig5Order is the seeded job order: a permutation of the 320 cells,
// cycled by the closed loop.
func fig5Order(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(seed, 0x66696735))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// fig5Bench runs Figure 5 Adaptive jobs to completion.
type fig5Bench struct {
	panels []fig5Panel
	jobs   []fig5Job
	order  []int
	// costs[job] is the first observed cost of the job (NaN until run);
	// every later run of the job must reproduce it bit for bit.
	costs []float64

	traced  bool
	jobList time.Duration
	rec     fig5Probe
}

// fig5Probe is the traced run's per-layer record.
type fig5Probe struct {
	jobs, kills, switches int
	jobTime, stratTime    time.Duration
	decisionMS            []float64
	sink                  countingSink
	windows               [][][]float64 // sampled decision windows: [window][zone][]price
	step                  int64
	seen                  int
}

func (b *fig5Bench) setup(seed uint64) error {
	start := time.Now()
	suite := experiment.NewQuickSuite(seed, fig5Windows)
	b.panels = fig5Panels()
	b.jobs = b.jobs[:0]
	for pi, p := range b.panels {
		windows := suite.ExperimentWindows(p.regime, p.slack)
		if len(windows) != fig5Windows {
			return fmt.Errorf("panel %s: %d windows, want %d", p.goldenPath(), len(windows), fig5Windows)
		}
		for wi, w := range windows {
			b.jobs = append(b.jobs, fig5Job{panel: pi, window: wi, cfg: suite.Config(w, p.slack, p.tc)})
		}
	}
	b.jobList = time.Since(start)
	b.order = fig5Order(seed, len(b.jobs))
	b.costs = make([]float64, len(b.jobs))
	for i := range b.costs {
		b.costs[i] = math.NaN()
	}
	for i := 0; i < fig5WarmupJobs; i++ {
		if err := b.op(i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *fig5Bench) setTraced(on bool) { b.traced = on }

// probe does nothing per job: decision windows are sampled inside the
// timed strategy and measured once the run is over.
func (b *fig5Bench) probe(int) {}

// op runs job order[i mod 320] with a fresh Adaptive strategy, exactly
// as experiment.Suite.Fig5 does for its Adaptive box.
func (b *fig5Bench) op(i int) error {
	ji := b.order[i%len(b.order)]
	job := &b.jobs[ji]
	var strat sim.Strategy
	a := core.NewAdaptive()
	var ts *timedStrategy
	if b.traced {
		a.Sink = &b.rec.sink
		ts = &timedStrategy{inner: a, probe: &b.rec}
		strat = ts
	} else {
		strat = a
	}
	start := time.Now()
	res, err := sim.Run(job.cfg, strat)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if ts != nil {
		b.rec.jobs++
		b.rec.kills += res.ProviderKills
		b.rec.switches += res.SpecSwitches
		b.rec.jobTime += elapsed
		b.rec.stratTime += ts.busy
	}
	if !res.Completed || !res.DeadlineMet {
		return fmt.Errorf("job %d (%s window %d) completed=%v deadline_met=%v", ji, b.panels[job.panel].goldenPath(), job.window, res.Completed, res.DeadlineMet)
	}
	if prev := b.costs[ji]; math.IsNaN(prev) {
		b.costs[ji] = res.Cost
	} else if math.Float64bits(prev) != math.Float64bits(res.Cost) {
		return fmt.Errorf("job %d cost %v differs from its earlier run %v", ji, res.Cost, prev)
	}
	return nil
}

// check compares every panel's Adaptive box with the committed figure
// CSV (default seed only: the goldens are seed 1's). A panel whose
// jobs did not all run is a violation, so a short run cannot pass
// unchecked.
func (b *fig5Bench) check(r *runner) {
	if r.seed != DefaultSeed {
		return
	}
	matched := 0
	for pi, p := range b.panels {
		costs := make([]float64, fig5Windows)
		complete := true
		for ji := range b.jobs {
			if b.jobs[ji].panel != pi {
				continue
			}
			c := b.costs[ji]
			if math.IsNaN(c) {
				complete = false
				break
			}
			costs[b.jobs[ji].window] = c
		}
		if !complete {
			r.violate("panel %s did not complete in this run, so its golden was not compared; raise -seconds", p.goldenPath())
			continue
		}
		golden, err := os.ReadFile(p.goldenPath())
		if err != nil {
			r.violate("reading golden: %v", err)
			continue
		}
		if err := checkAdaptiveRow(golden, costs); err != nil {
			r.violate("%s: %v", p.goldenPath(), err)
			continue
		}
		matched++
	}
	fmt.Printf("  Figure 5 goldens: %d of %d panels' Adaptive rows reproduced exactly\n", matched, len(b.panels))
}

// checkAdaptiveRow reports whether the box over costs, formatted as
// paperfigs writes it, equals the golden CSV's adaptive row exactly.
func checkAdaptiveRow(golden []byte, costs []float64) error {
	var want string
	sc := bufio.NewScanner(bytes.NewReader(golden))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "adaptive,") {
			want = sc.Text()
			break
		}
	}
	if want == "" {
		return fmt.Errorf("golden has no adaptive row")
	}
	var buf bytes.Buffer
	if err := report.WriteBoxesCSV(&buf, []string{"adaptive"}, []stats.Box{stats.NewBox(costs)}); err != nil {
		return err
	}
	got := strings.TrimSpace(strings.SplitN(buf.String(), "\n", 2)[1])
	if got != want {
		return fmt.Errorf("adaptive row %q, golden %q", got, want)
	}
	return nil
}

func (b *fig5Bench) layers(r *runner) {
	p := &b.rec
	r.set("experiment.job_list_ms", b.jobList.Seconds()*1e3, len(b.jobs), "windows + configs of the last set-up")
	if p.jobs == 0 {
		return
	}
	jobs := float64(p.jobs)
	s := &p.sink
	r.set("core.adaptive.decisions_per_job", float64(s.total)/jobs, p.jobs, "")
	r.set("core.adaptive.decisions_kill", float64(s.kill)/jobs, p.jobs, "per job")
	r.set("core.adaptive.decisions_hour", float64(s.hour)/jobs, p.jobs, "per job")
	if v, _, err := percentile(p.decisionMS, 0.5); err == nil {
		r.set("core.adaptive.decision_ms_p50", v, len(p.decisionMS), "")
	}
	if v, beyond, err := percentile(p.decisionMS, 0.99); err == nil {
		r.set("core.adaptive.decision_ms_p99", v, len(p.decisionMS), fmt.Sprintf("%d samples beyond", beyond))
	} else {
		r.violate("core.adaptive.decision_ms_p99: %v", err)
	}
	r.set("core.adaptive.busy_share", p.stratTime.Seconds()/p.jobTime.Seconds(), p.jobs, "Begin+Reconsider time / sim.Run time")
	if s.total > 0 {
		r.set("core.adaptive.perms_per_decision", float64(s.perms)/float64(s.total), s.total, "")
		r.set("core.adaptive.switch_ratio", float64(p.switches)/float64(s.total), s.total, "sim.Result.SpecSwitches / decisions")
	}
	r.set("sim.self_ms_per_job", (p.jobTime-p.stratTime).Seconds()*1e3/jobs, p.jobs, "sim.Run time - strategy time")
	r.set("sim.kills_per_job", float64(p.kills)/jobs, p.jobs, "")
	idx, fit := timeIndexAndFit(p.windows, p.step)
	r.set("trace.index_build_us", median(idx), len(idx), "Columns.Reset + AvailIndex.Get over the bid grid, per 12 h decision window")
	r.set("markov.fit_us", median(fit), len(fit), "Fitter.Fit of every zone, per 12 h decision window")
}

func (b *fig5Bench) close() {}

// timedStrategy wraps the Adaptive strategy, timing each decision and
// sampling decision windows for the layer timings.
type timedStrategy struct {
	inner sim.Strategy
	probe *fig5Probe
	busy  time.Duration
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) Begin(env *sim.Env) sim.RunSpec {
	start := time.Now()
	spec := t.inner.Begin(env)
	t.observe(env, time.Since(start))
	return spec
}

func (t *timedStrategy) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	start := time.Now()
	spec, ok := t.inner.Reconsider(env, events)
	t.observe(env, time.Since(start))
	return spec, ok
}

// observe records one decision and samples its estimation window (the
// Adaptive default: the trailing 12 hours).
func (t *timedStrategy) observe(env *sim.Env, d time.Duration) {
	t.busy += d
	p := t.probe
	p.decisionMS = append(p.decisionMS, d.Seconds()*1e3)
	p.seen++
	if p.seen%fig5CaptureEvery != 0 {
		return
	}
	w := make([][]float64, len(env.Zones))
	for zi := range w {
		w[zi] = env.PriceHistory(zi, 12*trace.Hour)
	}
	p.windows = append(p.windows, w)
	p.step = env.Step
}

// countingSink is a core.DecisionSink that counts decisions by trigger
// and the permutations each one scored.
type countingSink struct {
	total, kill, hour, perms int
}

func (s *countingSink) RecordDecision(p core.DecisionPoint) {
	s.total++
	s.perms += len(p.Ranked)
	switch p.Trigger {
	case core.TriggerProviderKill:
		s.kill++
	case core.TriggerHourBoundary:
		s.hour++
	}
}

// timeIndexAndFit times, per window, the trace index build (columnar
// view plus one availability index per zone and grid bid, recycled as
// the evaluator recycles them) and the Markov fits of every zone, in
// microseconds.
func timeIndexAndFit(windows [][][]float64, step int64) (idx, fit []float64) {
	bids := core.BidGrid()
	var f markov.Fitter
	var m *markov.Model
	var cols *trace.Columns
	var ai *trace.AvailIndex
	for _, w := range windows {
		set := windowSet(w, step)
		if set == nil {
			continue
		}
		// The evaluator recycles its columnar view and indexes across
		// decisions; so does this probe after the first window.
		start := time.Now()
		if cols == nil {
			cols = trace.NewColumns(set)
			ai = trace.NewAvailIndex(cols)
		} else {
			cols.Reset(set)
			ai.Reset(cols)
		}
		for zi := range w {
			for _, bid := range bids {
				ai.Get(zi, bid)
			}
		}
		idx = append(idx, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		for _, prices := range w {
			var err error
			if m, err = f.Fit(prices, step, m); err != nil {
				m = nil
			}
		}
		fit = append(fit, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return idx, fit
}

// windowSet wraps per-zone price slices as a trace set on the step
// grid (zone names are placeholders; indexes and fits ignore them).
func windowSet(w [][]float64, step int64) *trace.Set {
	if len(w) == 0 || len(w[0]) < 2 {
		return nil
	}
	series := make([]*trace.Series, len(w))
	for zi, prices := range w {
		series[zi] = &trace.Series{Zone: fmt.Sprintf("z%d", zi), Step: step, Prices: prices}
	}
	set, err := trace.NewSet(series...)
	if err != nil {
		return nil
	}
	return set
}
