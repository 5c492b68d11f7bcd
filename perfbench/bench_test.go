package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/quote"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestSeedFixesSequence: one seed always yields the same operation
// sequence and request bytes; another seed yields another.
func TestSeedFixesSequence(t *testing.T) {
	const n = 3 * quoteRound
	bodies := func(seed uint64) [][]byte {
		g := newQuoteShapes(seed)
		var out [][]byte
		for k := 0; k < n; k++ {
			_, body := g.get(k)
			out = append(out, body)
		}
		return out
	}
	a, b, c := bodies(DefaultSeed), bodies(DefaultSeed), bodies(HeldOutSeed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("quote-miss: the same seed produced different request bytes")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("quote-miss: different seeds produced the same request bytes")
	}
	if !reflect.DeepEqual(fig5Order(DefaultSeed, fig5Jobs), fig5Order(DefaultSeed, fig5Jobs)) {
		t.Fatal("fig5-adaptive: the same seed produced different job orders")
	}
	if reflect.DeepEqual(fig5Order(DefaultSeed, fig5Jobs), fig5Order(HeldOutSeed, fig5Jobs)) {
		t.Fatal("fig5-adaptive: different seeds produced the same job order")
	}
	order := append([]int(nil), fig5Order(HeldOutSeed, fig5Jobs)...)
	sort.Ints(order)
	for i, v := range order {
		if v != i {
			t.Fatalf("fig5-adaptive: job order is not a permutation of the %d cells", fig5Jobs)
		}
	}
}

// TestQuoteShapesNeverRepeat: no quote-miss shape repeats within a run
// (by the service's canonical cache key), and every timed round visits
// the whole (history window, max_zones) grid once.
func TestQuoteShapesNeverRepeat(t *testing.T) {
	g := newQuoteShapes(DefaultSeed)
	seen := map[string]bool{}
	const rounds = 200
	for k := 0; k < quoteWarmup+rounds*quoteRound; k++ {
		req, body := g.get(k)
		dec, err := quote.DecodeRequest(bytes.NewReader(body))
		if err != nil || dec != req {
			t.Fatalf("shape %d: body %s does not decode to its request (%v)", k, body, err)
		}
		req.Normalize()
		if err := req.Validate(); err != nil {
			t.Fatalf("shape %d: %v", k, err)
		}
		if seen[req.Key()] {
			t.Fatalf("shape %d repeats %s", k, req.Key())
		}
		seen[req.Key()] = true
	}
	for r := 0; r < rounds; r++ {
		cells := map[quoteCell]bool{}
		for i := 0; i < quoteRound; i++ {
			req := g.reqs[quoteWarmup+r*quoteRound+i]
			cells[quoteCell{int(req.HistoryWindowHours), req.MaxZones}] = true
		}
		if len(cells) != quoteRound {
			t.Fatalf("round %d covers %d of %d grid points", r, len(cells), quoteRound)
		}
	}
}

// TestFig5CheckerRejectsPerturbedCost runs one Figure 5 panel's
// Adaptive jobs, accepts them against the committed CSV, and rejects
// the costs with any single one of them moved by a cent. (The golden
// holds only the box, so a change too small to move the quartiles,
// extremes or mean cannot be seen; within a run, every repeat of a job
// must also reproduce its first cost bit for bit.)
func TestFig5CheckerRejectsPerturbedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 Adaptive jobs")
	}
	p := fig5Panel{regime: experiment.RegimeLow, slack: 0.15, tc: 300}
	golden, err := os.ReadFile(filepath.Join("..", p.goldenPath()))
	if err != nil {
		t.Fatal(err)
	}
	suite := experiment.NewQuickSuite(DefaultSeed, fig5Windows)
	var costs []float64
	for _, w := range suite.ExperimentWindows(p.regime, p.slack) {
		res, err := sim.Run(suite.Config(w, p.slack, p.tc), core.NewAdaptive())
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, res.Cost)
	}
	if err := checkAdaptiveRow(golden, costs); err != nil {
		t.Fatalf("unperturbed costs rejected: %v", err)
	}
	for i := range costs {
		orig := costs[i]
		costs[i] = orig + 0.01
		if checkAdaptiveRow(golden, costs) == nil {
			t.Fatalf("cost %d moved by a cent was accepted", i)
		}
		costs[i] = orig
	}
	sorted := append([]float64(nil), costs...)
	sort.Float64s(sorted)
	for i := range costs {
		if costs[i] == sorted[len(sorted)/2] {
			costs[i] = math.Nextafter(costs[i], math.Inf(1))
			break
		}
	}
	if checkAdaptiveRow(golden, costs) == nil {
		t.Fatal("a median cost moved by one ulp was accepted")
	}
}

// TestCheckAdaptiveRowSynthetic pins the checker on a golden written
// the way paperfigs writes it.
func TestCheckAdaptiveRowSynthetic(t *testing.T) {
	costs := make([]float64, fig5Windows)
	for i := range costs {
		costs[i] = 5 + float64(i%7)*0.31
	}
	var buf bytes.Buffer
	if err := report.WriteBoxesCSV(&buf, []string{"adaptive", "periodic"}, []stats.Box{stats.NewBox(costs), stats.NewBox(costs[:3])}); err != nil {
		t.Fatal(err)
	}
	if err := checkAdaptiveRow(buf.Bytes(), costs); err != nil {
		t.Fatal(err)
	}
	costs[0] += 0.01
	if checkAdaptiveRow(buf.Bytes(), costs) == nil {
		t.Fatal("perturbed cost accepted")
	}
	if checkAdaptiveRow([]byte("label,n\nperiodic,1\n"), costs) == nil {
		t.Fatal("golden without an adaptive row accepted")
	}
}

// TestPercentileRefusesThinTail: p99 needs ten samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, beyond, err := percentile(samples(999), 0.99); err == nil {
		t.Fatalf("p99 of 999 samples accepted with %d beyond", beyond)
	}
	v, beyond, err := percentile(samples(1000), 0.99)
	if err != nil || beyond != 10 || v != 990 {
		t.Fatalf("p99 of 1000 samples = %v, %d beyond, %v; want 990, 10, nil", v, beyond, err)
	}
	if v, _, err := percentile(samples(5), 0.5); err != nil || v != 3 {
		t.Fatalf("p50 of 5 samples = %v, %v; want 3, nil", v, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

// TestRetainedSteps pins the stream window arithmetic the output check
// rebuilds the reference window from.
func TestRetainedSteps(t *testing.T) {
	r := core.DefaultStreamRetention
	for _, c := range []struct{ ticks, want int }{
		{0, 0}, {1, 1}, {r, r}, {r + 1, r / 2}, {r + r/2 + 1, r}, {r + r/2 + 2, r / 2},
	} {
		if got := retainedSteps(c.ticks); got != c.want {
			t.Errorf("retainedSteps(%d) = %d, want %d", c.ticks, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics
// and workloads the benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSpeedGauge pins the gauge's contract: the kernel allocates
// nothing (it must not add garbage-collector work to the run it
// measures), and every workload's chunk divides its interval, so the
// gauge reads at the same operation ordinals in every interval.
func TestSpeedGauge(t *testing.T) {
	var g speedGauge
	scale := g.read()
	if !(scale > 0) || len(g.readings) != 1 || len(g.reps) != gaugeReps {
		t.Fatalf("read: scale %v, %d readings, %d reps", scale, len(g.readings), len(g.reps))
	}
	if want := refKernelSeconds / median(g.reps); scale != want {
		t.Errorf("scale %v, want refKernelSeconds / median kernel time = %v", scale, want)
	}
	if allocs := testing.AllocsPerRun(3, func() { refKernel(g.sortBuf, g.streamBuf) }); allocs != 0 {
		t.Errorf("refKernel allocates %v times per run", allocs)
	}
	for name, w := range workloads {
		if w.chunk <= 0 || w.interval%w.chunk != 0 {
			t.Errorf("%s: chunk %d does not divide interval %d", name, w.chunk, w.interval)
		}
	}
}
