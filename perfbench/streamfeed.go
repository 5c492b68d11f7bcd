package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/quote"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// streamShapes is the fixed subscription set, the same at every seed.
// Shape 0 is also subscribed over SSE.
var streamShapes = []quote.StreamRequest{
	{WorkHours: 12, DeadlineHours: 18, MaxZones: 2},
}

// streamTraceMonths is the feed's length. A moderate-volatility trace
// keeps the zone ordering churning (so ticks catch permutations up)
// while its statistics stay the same along the feed, so a run's cost
// does not depend on how far into the feed it gets.
const streamTraceMonths = 12

// streamWarmup is the set-up's tick count: the feed fills the resident
// evaluators' retention exactly, so the timed part starts from a full
// window.
const streamWarmup = core.DefaultStreamRetention

// streamEpoch is one retention epoch in ticks: the first timed tick
// compacts the full window to half, and every epoch after it repeats
// the same structure (one compaction, DefaultStreamRetention/2 /
// DefaultCrossCheckEvery cross-checks).
const streamEpoch = core.DefaultStreamRetention / 2

// retainedSteps is a resident evaluator's window length after n ticks
// at the default retention: it grows to the bound, then compacts to
// half of it.
func retainedSteps(n int) int {
	l := 0
	for i := 0; i < n; i++ {
		l++
		if l > core.DefaultStreamRetention {
			l = core.DefaultStreamRetention / 2
		}
	}
	return l
}

// streamBench feeds consecutive ticks of a seeded trace into
// a quote.Streamer whose shapes are subscribed in-process, and shape 0
// also over one SSE loopback connection.
type streamBench struct {
	set     *trace.Set
	st      *quote.Streamer
	svc     *quote.Service
	subs    []*quote.StreamSub
	lastGen []uint64
	seq     uint64

	cancel     context.CancelFunc
	served     chan error
	sse        *sseClient
	sseWaited  uint64
	violations atomic.Int64
	warmGens   int64
	warmTicks  int64

	traced bool
	probes streamProbes
}

// streamProbes accumulates the traced run's layer samples.
type streamProbes struct {
	frameDelayMS         []float64
	tickTime, checkTime  time.Duration
	ticks, checkTicks    int
	rankMS, idxUS, fitUS []float64
}

// row returns the feed's row for sequence number seq (1-based),
// cycling through the trace.
func (b *streamBench) row(seq uint64) []float64 {
	n := uint64(b.set.Series[0].Len())
	return b.set.PricesAt(b.set.Start() + int64((seq-1)%n)*b.set.Step())
}

func (b *streamBench) setup(seed uint64) error {
	b.set = tracegen.MustGenerate(tracegen.ModerateVolatilityConfig(seed, streamTraceMonths*tracegen.SamplesPerMonth))
	b.svc = &quote.Service{Source: &quote.StaticSource{Set: b.set}}
	b.st = &quote.Streamer{
		Metrics: b.svc.Stats().AttachStream(),
		Zones:   b.set.Zones(),
		Start:   b.set.Start(),
		Step:    b.set.Step(),
	}
	for _, req := range streamShapes {
		sub, err := b.st.Subscribe(req)
		if err != nil {
			return err
		}
		b.subs = append(b.subs, sub)
	}
	b.lastGen = make([]uint64, len(b.subs))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.served = make(chan error, 1)
	srv := httpx.NewServer("", quote.NewStreamingHandler(b.svc, b.st))
	go func() { b.served <- httpx.Serve(ctx, srv, ln, time.Second) }()
	b.sse, err = dialSSE(ctx, "http://"+ln.Addr().String()+"/v1/quotes/stream?"+shapeQuery(streamShapes[0]), &b.violations)
	if err != nil {
		return err
	}
	for i := 0; i < streamWarmup; i++ {
		if err := b.tick(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	b.warmGens = b.st.Metrics.Generations.Load()
	b.warmTicks = b.st.Metrics.Ticks.Load()
	return nil
}

// shapeQuery encodes a subscription shape as stream query parameters.
func shapeQuery(r quote.StreamRequest) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	q := url.Values{}
	q.Set("work_hours", g(r.WorkHours))
	q.Set("deadline_hours", g(r.DeadlineHours))
	q.Set("max_zones", strconv.Itoa(r.MaxZones))
	return q.Encode()
}

func (b *streamBench) setTraced(on bool) { b.traced = on }

// op ingests the next tick; see tick.
func (b *streamBench) op(int) error { return b.tick() }

// tick ingests the next feed row, checks every in-process subscriber's
// generations are monotonic, and — when the SSE shape published a new
// generation — waits until the SSE client has received it, so an
// operation ends when the tick has reached its subscribers.
func (b *streamBench) tick() error {
	b.seq++
	start := time.Now()
	if err := b.st.Ingest(b.seq, b.row(b.seq)); err != nil {
		return err
	}
	ingested := time.Now()
	for k, sub := range b.subs {
		select {
		case ev := <-sub.Events():
			if ev.Generation <= b.lastGen[k] {
				return fmt.Errorf("shape %d generation %d after %d", k, ev.Generation, b.lastGen[k])
			}
			b.lastGen[k] = ev.Generation
		default:
		}
	}
	if g := b.st.Generation(b.subs[0]); g > b.sseWaited {
		recv, err := b.sse.await(g)
		if err != nil {
			return err
		}
		b.sseWaited = g
		if b.traced {
			b.probes.frameDelayMS = append(b.probes.frameDelayMS, recv.Sub(ingested).Seconds()*1e3)
		}
	}
	if b.traced {
		d := time.Since(start)
		b.probes.ticks++
		b.probes.tickTime += d
		// Every shape subscribed before the first tick, so each
		// resident evaluator's tick count is seq and the cross-check
		// runs on the same ticks for all of them.
		if b.seq%core.DefaultCrossCheckEvery == 0 {
			b.probes.checkTicks++
			b.probes.checkTime += d
		}
	}
	return nil
}

func (b *streamBench) probe(int) {}

// check verifies the streamer's own error counters, the SSE client's
// generation order, and that each shape's table equals a from-scratch
// Evaluator.Rank over its retained window.
func (b *streamBench) check(r *runner) {
	m := b.st.Metrics
	if n := m.TickErrors.Load(); n != 0 {
		r.violate("%d stream tick errors", n)
	}
	if n := m.CrossCheckMismatches.Load(); n != 0 {
		r.violate("%d stream cross-check mismatches", n)
	}
	if n := b.violations.Load(); n != 0 {
		r.violate("SSE client saw %d out-of-order generations", n)
	}
	n := int(b.seq)
	l := retainedSteps(n)
	hist := b.window(n-l, n)
	var ev core.Evaluator
	for k, sub := range b.subs {
		req := streamShapes[k]
		req.Normalize()
		start := time.Now()
		plans, err := ev.Rank(core.PlanRequest{
			History:        hist,
			Work:           int64(math.Round(req.WorkHours * float64(trace.Hour))),
			Deadline:       int64(math.Round(req.DeadlineHours * float64(trace.Hour))),
			CheckpointCost: core.DefaultCheckpointCost,
			RestartCost:    core.DefaultCheckpointCost,
			OnDemandRate:   req.OnDemandPrice,
			MaxZones:       req.MaxZones,
		})
		b.probes.rankMS = append(b.probes.rankMS, time.Since(start).Seconds()*1e3)
		if err != nil {
			r.violate("shape %d: reference Rank: %v", k, err)
			continue
		}
		if err := sameTable(b.st.Latest(sub), plans, req.Top); err != nil {
			r.violate("shape %d after %d ticks: %v", k, n, err)
		}
	}
	w := make([][]float64, hist.NumZones())
	for zi, s := range hist.Series {
		w[zi] = s.Prices
	}
	b.probes.idxUS, b.probes.fitUS = timeIndexAndFit([][][]float64{w}, hist.Step())
}

// window builds the trace set of feed rows (from, to] by sequence
// number, on the feed's time grid.
func (b *streamBench) window(from, to int) *trace.Set {
	series := make([]*trace.Series, len(b.set.Series))
	for zi, s := range b.set.Series {
		series[zi] = &trace.Series{Zone: s.Zone, Epoch: b.set.Start() + int64(from)*b.set.Step(), Step: b.set.Step()}
	}
	for seq := from + 1; seq <= to; seq++ {
		for zi, p := range b.row(uint64(seq)) {
			series[zi].Prices = append(series[zi].Prices, p)
		}
	}
	return trace.MustNewSet(series...)
}

// sameTable reports whether a pushed event carries exactly the top
// plans of a reference ranking, converted as the wire format does.
func sameTable(ev *quote.StreamEvent, plans []core.Plan, top int) error {
	if ev == nil || ev.Best == nil {
		return fmt.Errorf("no published table")
	}
	if ev.Evaluated != len(plans) {
		return fmt.Errorf("table ranks %d permutations, reference %d", ev.Evaluated, len(plans))
	}
	got := append([]quote.Plan{*ev.Best}, ev.Alternatives...)
	if top > len(plans) {
		top = len(plans)
	}
	if len(got) != top {
		return fmt.Errorf("table carries %d plans, want %d", len(got), top)
	}
	for i := range got {
		p := plans[i]
		want := quote.Plan{
			Bid:                  p.Bid,
			Zones:                p.Zones,
			Policy:               p.Policy,
			PredictedCost:        p.PredictedCost,
			CostRatePerHour:      p.CostRate,
			ProgressRate:         p.ProgressRate,
			PredictedFinishHours: float64(p.PredictedFinish) / float64(trace.Hour),
			DeadlineMarginHours:  float64(p.DeadlineMargin) / float64(trace.Hour),
		}
		a, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want)
		if string(a) != string(w) {
			return fmt.Errorf("rank %d is %s, reference %s", i, a, w)
		}
	}
	return nil
}

func (b *streamBench) layers(r *runner) {
	p := &b.probes
	m := b.st.Metrics
	ticks := m.Ticks.Load() - b.warmTicks
	if ticks <= 0 || p.ticks == 0 {
		return
	}
	r.set("quote.stream.generations_per_tick", float64(m.Generations.Load()-b.warmGens)/float64(ticks), int(ticks), "quote.StreamMetrics, all shapes")
	r.set("httpx.sse_frame_delay_ms", median(p.frameDelayMS), len(p.frameDelayMS), "Ingest return to SSE frame receipt")
	r.set("core.stream.crosscheck_tick_share", p.checkTime.Seconds()/p.tickTime.Seconds(), p.ticks,
		fmt.Sprintf("%d of %d traced ticks ran a cross-check", p.checkTicks, p.ticks))
	r.set("core.rank_ms_p50", median(p.rankMS), len(p.rankMS), "reference Rank per shape on its retained window")
	r.set("trace.index_build_us", median(p.idxUS), len(p.idxUS), "on the retained window")
	r.set("markov.fit_us", median(p.fitUS), len(p.fitUS), "on the retained window")

	// core.StreamStats are per evaluator and the streamer keeps its
	// evaluators private, so a mirror evaluator per shape replays the
	// same feed after the run and its counters are read.
	var before, after core.StreamStats
	for _, req := range streamShapes {
		req.Normalize()
		se, err := core.NewStreamEvaluator(nil, core.StreamConfig{
			Zones:          b.set.Zones(),
			Start:          b.set.Start(),
			Step:           b.set.Step(),
			Work:           int64(math.Round(req.WorkHours * float64(trace.Hour))),
			Deadline:       int64(math.Round(req.DeadlineHours * float64(trace.Hour))),
			CheckpointCost: core.DefaultCheckpointCost,
			RestartCost:    core.DefaultCheckpointCost,
			OnDemandRate:   req.OnDemandPrice,
			MaxZones:       req.MaxZones,
		})
		if err != nil {
			r.violate("mirror evaluator: %v", err)
			return
		}
		for seq := uint64(1); seq <= b.seq; seq++ {
			if _, err := se.Advance(b.row(seq)); err != nil {
				r.violate("mirror evaluator: %v", err)
				return
			}
			if seq == uint64(streamWarmup) {
				addStats(&before, se.Stats())
			}
		}
		addStats(&after, se.Stats())
	}
	per1k := 1000 / float64(ticks)
	note := fmt.Sprintf("per 1k ticks, %d shapes, mirror core.StreamStats", len(streamShapes))
	r.set("core.stream.crosschecks", float64(after.CrossChecks-before.CrossChecks)*per1k, int(ticks), note)
	r.set("core.stream.rebuilds", float64(after.Rebuilds-before.Rebuilds)*per1k, int(ticks), note)
	r.set("core.stream.compactions", float64(after.Compactions-before.Compactions)*per1k, int(ticks), note)
	r.set("core.stream.catchups", float64(after.CatchUps-before.CatchUps)*per1k, int(ticks), note)
}

// addStats sums the structural counters of s into acc.
func addStats(acc *core.StreamStats, s core.StreamStats) {
	acc.CrossChecks += s.CrossChecks
	acc.Rebuilds += s.Rebuilds
	acc.Compactions += s.Compactions
	acc.CatchUps += s.CatchUps
}

func (b *streamBench) close() {
	for _, sub := range b.subs {
		sub.Close()
	}
	if b.sse != nil {
		b.sse.close()
	}
	if b.cancel != nil {
		b.cancel()
		<-b.served
	}
}

// sseClient reads one SSE subscription, publishing the newest plan
// generation it received and when.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	gen    atomic.Uint64
	at     atomic.Int64 // receipt time of gen, UnixNano
	notify chan struct{}
}

// dialSSE opens the subscription and starts its reader; out-of-order
// plan generations are counted into bad.
func dialSSE(ctx context.Context, u string, bad *atomic.Int64) (*sseClient, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE subscribe: status %d", resp.StatusCode)
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{}), notify: make(chan struct{}, 1)}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		event := ""
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "plan":
				var ev quote.StreamEvent
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) != nil || ev.Generation <= c.gen.Load() {
					bad.Add(1)
					continue
				}
				c.at.Store(time.Now().UnixNano())
				c.gen.Store(ev.Generation)
				select {
				case c.notify <- struct{}{}:
				default:
				}
			}
		}
	}()
	return c, nil
}

// await blocks until generation gen (or a later one) has arrived and
// returns when the newest frame was received.
func (c *sseClient) await(gen uint64) (time.Time, error) {
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for c.gen.Load() < gen {
		select {
		case <-c.notify:
		case <-c.done:
			return time.Time{}, fmt.Errorf("SSE stream ended before generation %d", gen)
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("SSE generation %d not received within 10 s", gen)
		}
	}
	return time.Unix(0, c.at.Load()), nil
}

// close ends the subscription and waits for the reader to exit.
func (c *sseClient) close() {
	c.cancel()
	<-c.done
}
