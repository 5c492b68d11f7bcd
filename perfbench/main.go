// Command perfbench is the repository benchmark. It runs one workload
// as a closed loop (a single caller issues the next operation only
// after the previous one completed) for a fixed number of seconds,
// checks every output, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) reports the per-layer metrics, measured from outside
// the program: the benchmark times its own calls into public
// functions, wraps public interfaces (sim.Strategy, quote.HistorySource,
// http.Handler, core.DecisionSink) and reads the counters the program
// exports. A traced run alternates untraced and traced blocks of
// operations and reports the throughput difference as the tracing
// overhead.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload fig5-adaptive --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// setupRepeats is how many times a run builds its workload state; the
// median is reported as setup_s and the last build is measured.
const setupRepeats = 5

// Default and held-out seeds. The figure and body goldens hold at
// DefaultSeed only; at HeldOutSeed (and any other) only the invariant
// checks apply. Claims of a speed-up must also hold at HeldOutSeed.
const (
	DefaultSeed = 1
	HeldOutSeed = 20261017
)

// bench is one workload. A fresh value is built per set-up.
type bench interface {
	// setup builds the workload state from the seed, including its
	// fixed untimed warm-up.
	setup(seed uint64) error
	// op runs operation i of the seeded sequence.
	op(i int) error
	// setTraced switches the benchmark's own layer probes on or off.
	setTraced(on bool)
	// probe runs after operation i of a traced block, outside its
	// timing: the benchmark's standalone layer measurements.
	probe(i int)
	// check runs the output checks that need the whole run; each
	// violation is reported through r.violate.
	check(r *runner)
	// layers reports the per-layer metrics of a traced run.
	layers(r *runner)
	// close releases everything setup started and waits for it.
	close()
}

// spec is a workload's measurement layout.
type spec struct {
	make func() bench
	// interval is the operation count of one repeating unit of
	// identical work (a Figure 5 cycle, a quote-grid round, a stream
	// retention epoch). Throughput is the median over complete
	// intervals, so a burst of interference on a shared box moves one
	// interval, not the result.
	interval int
	// chunk divides interval: the speed gauge reads after every chunk
	// of operations of an untraced run.
	chunk int
	// block is the length in operations of a traced run's alternating
	// untraced and traced blocks.
	block int
	// procs is the run's GOMAXPROCS. One closed-loop caller on one P,
	// where that is steady: on a small shared VM the evaluator fan-out
	// gains no throughput, while every goroutine handoff to another
	// vCPU (HTTP peer, fan-out worker) waits whenever the hypervisor
	// has descheduled that vCPU. stream-feed runs on two Ps: on one,
	// the garbage collector's mark work landed on a varying share of
	// the ticks, right at the p99.
	procs int
	// repeat replays each untraced block's operations in the traced
	// block (identical work on both sides); otherwise the traced block
	// continues the sequence.
	repeat bool
}

// workloads maps each workload name to its measurement layout.
var workloads = map[string]spec{
	"fig5-adaptive": {make: func() bench { return &fig5Bench{} }, interval: fig5Jobs, chunk: fig5Jobs / 8, block: 40, procs: 1, repeat: true},
	"quote-miss":    {make: func() bench { return &quoteBench{} }, interval: quoteRound, chunk: quoteRound / 3, block: quoteRound, procs: 1},
	"stream-feed":   {make: func() bench { return &streamBench{} }, interval: streamEpoch, chunk: streamEpoch / 4, block: core.DefaultCrossCheckEvery, procs: 2},
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload prints all
// of them; a layer a workload does not exercise reads 0 with n=0.
var perLayer = []metricDef{
	{"experiment.job_list_ms", "ms"},
	{"core.adaptive.decisions_per_job", "count"},
	{"core.adaptive.decisions_kill", "count"},
	{"core.adaptive.decisions_hour", "count"},
	{"core.adaptive.decision_ms_p50", "ms"},
	{"core.adaptive.decision_ms_p99", "ms"},
	{"core.adaptive.busy_share", "ratio"},
	{"core.adaptive.perms_per_decision", "count"},
	{"core.adaptive.switch_ratio", "ratio"},
	{"sim.self_ms_per_job", "ms"},
	{"sim.kills_per_job", "count"},
	{"trace.index_build_us", "us"},
	{"markov.fit_us", "us"},
	{"core.rank_ms_p50", "ms"},
	{"core.rank.plans", "count"},
	{"quote.history_ms", "ms"},
	{"quote.handler_ms", "ms"},
	{"quote.cache_hit_ratio", "ratio"},
	{"httpx.client_overhead_ms", "ms"},
	{"httpx.sse_frame_delay_ms", "ms"},
	{"quote.stream.generations_per_tick", "ratio"},
	{"core.stream.crosschecks", "count/1k"},
	{"core.stream.rebuilds", "count/1k"},
	{"core.stream.compactions", "count/1k"},
	{"core.stream.catchups", "count/1k"},
	{"core.stream.crosscheck_tick_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_1k_ops", "count/1k"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"bench.throughput_untraced_per_s", "1/s"},
	{"bench.throughput_traced_per_s", "1/s"},
	{"bench.trace_overhead_pct", "%"},
}

// reading is one measured metric value with its sample count.
type reading struct {
	value float64
	n     int
	note  string
}

// runner drives one run and collects its readings and violations.
type runner struct {
	seed       uint64
	seconds    float64
	traced     bool
	readings   map[string]reading
	gauge      speedGauge
	violations []string
	attempted  int
	failed     int
}

// set records a metric reading.
func (r *runner) set(name string, value float64, n int, note string) {
	r.readings[name] = reading{value, n, note}
}

// violate records an output-check violation; any violation fails the
// run.
func (r *runner) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload: fig5-adaptive, quote-miss or stream-feed")
	seed := flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed (default %d, held-out %d)", DefaultSeed, HeldOutSeed))
	seconds := flag.Float64("seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	r := &runner{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, readings: map[string]reading{}}
	if err := r.run(w); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !r.print(*name) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run sets the workload up setupRepeats times, measures the last set-up
// for the configured seconds and runs the output checks.
func (r *runner) run(w spec) error {
	var b bench
	var setups, raw []float64
	prev := r.gauge.read()
	for k := 0; k < setupRepeats; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		b = w.make()
		start := time.Now()
		if err := b.setup(r.seed); err != nil {
			b.close()
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start).Seconds()
		next := r.gauge.read()
		raw = append(raw, d)
		setups = append(setups, d*(prev+next)/2)
		prev = next
	}
	defer b.close()
	// The set-ups' garbage is collected outside every timing, so the
	// first measured operations do not pay for it.
	runtime.GC()

	if r.traced {
		r.measureTraced(b, w)
	} else if err := r.measure(b, w.interval, w.chunk); err != nil {
		return err
	}
	r.set("setup_s", median(setups), len(setups), fmt.Sprintf("median of %d set-ups; %.4g s unscaled", len(setups), median(raw)))
	b.check(r)
	if r.traced {
		b.layers(r)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("max_rss_mb", float64(ru.Maxrss)/1024, 1, "peak resident set of the whole run")
	}
	return nil
}

// runOp runs one operation, counting it and any failure.
func (r *runner) runOp(b bench, i int) {
	r.attempted++
	if err := b.op(i); err != nil {
		r.failed++
		r.violate("op %d: %v", i, err)
	}
}

// measure is the untraced closed loop: operations back to back until
// the configured seconds have elapsed. Every figure comes from the
// complete intervals only, so each run reports on whole repeats of the
// same work. Before the first chunk of operations and after every
// chunk the speed gauge reads, outside every timing, and a chunk's
// timings are scaled by the mean of the readings on either side of it.
// The gauge reads at the same operation ordinals in every interval, so
// the operations it leaves with a cold cache are the same ones in every
// interval. Throughput is the median over intervals; p50 and p99 are
// over all their operations. The table also prints each figure
// unscaled.
func (r *runner) measure(b bench, interval, chunk int) error {
	var lat, rates, rawLat, rawRates []float64
	var scaled, raw time.Duration // the current interval's time so far
	prev := r.gauge.read()
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	mark := start
	for i := 0; ; i++ {
		t := time.Now()
		if !t.Before(deadline) {
			break
		}
		r.runOp(b, i)
		rawLat = append(rawLat, time.Since(t).Seconds()*1e3)
		if len(rawLat)%chunk != 0 {
			continue
		}
		elapsed := time.Since(mark)
		next := r.gauge.read()
		scale := (prev + next) / 2
		prev = next
		raw += elapsed
		scaled += time.Duration(float64(elapsed) * scale)
		for _, l := range rawLat[len(rawLat)-chunk:] {
			lat = append(lat, l*scale)
		}
		if len(rawLat)%interval == 0 {
			rawRates = append(rawRates, float64(interval)/raw.Seconds())
			rates = append(rates, float64(interval)/scaled.Seconds())
			raw, scaled = 0, 0
		}
		mark = time.Now()
	}
	if len(rates) < 3 {
		return fmt.Errorf("throughput_per_s: %d complete intervals of %d operations; need 3 (raise -seconds)", len(rates), interval)
	}
	lat = lat[:len(rates)*interval]
	rawLat = rawLat[:len(lat)]
	fmt.Printf("  speed gauge: kernel %.4g-%.4g ms (median %.4g) over %d reads, reference %.4g ms\n",
		slices.Min(r.gauge.readings)*1e3, slices.Max(r.gauge.readings)*1e3, median(r.gauge.readings)*1e3, len(r.gauge.readings), refKernelSeconds*1e3)
	r.set("throughput_per_s", median(rates), len(lat), fmt.Sprintf("median over %d intervals of %d operations; %.4g/s unscaled", len(rates), interval, median(rawRates)))
	p50, _, _ := percentile(lat, 0.50)
	r.set("latency_p50_ms", p50, len(lat), fmt.Sprintf("over %d complete intervals; %.4g ms unscaled", len(rates), median(rawLat)))
	p99, beyond, err := percentile(lat, 0.99)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w (raise -seconds)", err)
	}
	rawP99, _, _ := percentile(rawLat, 0.99)
	r.set("latency_p99_ms", p99, len(lat), fmt.Sprintf("over %d complete intervals, %d samples beyond; %.4g ms unscaled", len(rates), beyond, rawP99))
	sort.Float64s(lat)
	fmt.Printf("  latency ladder (ms):")
	for _, q := range []int{900, 950, 980, 990, 992, 995, 998} {
		fmt.Printf(" p%g %.4g", float64(q)/10, lat[len(lat)*q/1000])
	}
	fmt.Printf(" max %.4g\n", lat[len(lat)-1])
	return nil
}

// procSample is a cumulative process snapshot for runtime.* deltas.
type procSample struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	cpu                 time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC, cpu}
}

// measureTraced alternates untraced and traced blocks until the
// configured seconds have elapsed. Which side of a pair runs first
// follows the Thue-Morse sequence, so work that recurs every 2^k pairs
// (a stream compaction every eight) falls on both sides equally; a
// plain alternation would put it on the same side every time.
// runtime.* metrics come from the untraced blocks, so they describe
// the program without the probes.
func (r *runner) measureTraced(b bench, w spec) {
	var side [2]struct {
		ops  int
		busy time.Duration
	}
	var rt procSample
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	next := 0
	for pair := 0; time.Now().Before(deadline); pair++ {
		order := [2]bool{false, true}
		if bits.OnesCount(uint(pair))%2 == 1 {
			order = [2]bool{true, false}
		}
		first := next
		for _, traced := range order {
			from := next
			if w.repeat {
				from = first
			}
			b.setTraced(traced)
			var before procSample
			if !traced {
				before = sampleProc()
			}
			var d time.Duration
			for i := from; i < from+w.block; i++ {
				t := time.Now()
				r.runOp(b, i)
				d += time.Since(t)
				if traced {
					b.probe(i)
				}
			}
			if !traced {
				after := sampleProc()
				rt.mallocs += after.mallocs - before.mallocs
				rt.totalAlloc += after.totalAlloc - before.totalAlloc
				rt.numGC += after.numGC - before.numGC
				rt.cpu += after.cpu - before.cpu
			}
			s := &side[btoi(traced)]
			s.ops += w.block
			s.busy += d
			next = from + w.block
		}
	}
	b.setTraced(false)
	un, tr := side[0], side[1]
	ops := float64(un.ops)
	r.set("runtime.allocs_per_op", float64(rt.mallocs)/ops, un.ops, "untraced blocks")
	r.set("runtime.alloc_kb_per_op", float64(rt.totalAlloc)/1024/ops, un.ops, "untraced blocks")
	r.set("runtime.gc_per_1k_ops", float64(rt.numGC)*1000/ops, un.ops, "untraced blocks")
	r.set("runtime.cpu_ms_per_op", rt.cpu.Seconds()*1e3/ops, un.ops, "untraced blocks")
	tu := float64(un.ops) / un.busy.Seconds()
	tt := float64(tr.ops) / tr.busy.Seconds()
	r.set("bench.throughput_untraced_per_s", tu, un.ops, "")
	r.set("bench.throughput_traced_per_s", tt, tr.ops, "")
	r.set("bench.trace_overhead_pct", (tu-tt)/tu*100, un.ops+tr.ops,
		fmt.Sprintf("(untraced %.4g/s - traced %.4g/s) / untraced", tu, tt))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes the human-readable table to standard output and the
// JSON result as its last line; it reports whether the run is correct.
func (r *runner) print(workload string) bool {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g gomaxprocs=%d %s\n", workload, r.seed, r.seconds, runtime.GOMAXPROCS(0), mode)
	errorRate := 0.0
	if r.attempted > 0 {
		errorRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-36s %14.6g %-8s n=%d\n", "error_rate", errorRate, "ratio", r.attempted)
	for _, d := range defs {
		rd, ok := r.readings[d.name]
		n := fmt.Sprintf("n=%d", rd.n)
		if !ok {
			n = "n=0 (layer not exercised by this workload)"
		}
		if rd.note != "" {
			n += " (" + rd.note + ")"
		}
		fmt.Printf("  %-36s %14.6g %-8s %s\n", d.name, rd.value, d.unit, n)
		out.Metrics[d.name] = map[string]any{"value": rd.value, "unit": d.unit}
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	out.Correct = len(r.violations) == 0 && r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}
