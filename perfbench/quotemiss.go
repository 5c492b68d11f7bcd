package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/quote"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// quoteWarmup is the fixed untimed warm-up: the first shapes of the
// sequence, quoted once during set-up.
const quoteWarmup = 48

// quoteDigestPrefix is how many leading response bodies the golden
// digest covers.
const quoteDigestPrefix = 64

// quoteBodyDigest is the FNV-64a digest of the first quoteDigestPrefix
// response bodies at DefaultSeed.
const quoteBodyDigest = "dfd66566b3d30919"

// Quote shapes cover a fixed grid of the two properties a quote's cost
// depends on: the history window (12-168 h, which sets the replay
// length) and max_zones (1-3, which sets the permutation grid). The
// timed sequence runs in rounds; each round visits every grid point
// once, in a seeded order, with seeded work and deadline, so every
// round and every seed does the same mix of replay work.
const (
	quoteMinWindow  = 12
	quoteMaxWindow  = 168
	quoteWindowStep = 6
	quoteMaxZones   = 3
	quoteRound      = ((quoteMaxWindow-quoteMinWindow)/quoteWindowStep + 1) * quoteMaxZones
)

// quoteCell is one (history window, max_zones) grid point.
type quoteCell struct{ window, zones int }

// quoteGrid lists every grid point.
func quoteGrid() []quoteCell {
	var out []quoteCell
	for w := quoteMinWindow; w <= quoteMaxWindow; w += quoteWindowStep {
		for z := 1; z <= quoteMaxZones; z++ {
			out = append(out, quoteCell{w, z})
		}
	}
	return out
}

// quoteShapes generates the seeded request sequence. Every shape is
// distinct (by the service's canonical cache key), so every quote
// misses the plan cache and plans from scratch. The warm-up shapes
// sample the grid evenly; the timed shapes go round by round.
type quoteShapes struct {
	rng    *rand.Rand
	grid   []quoteCell
	seen   map[string]bool
	reqs   []quote.Request
	bodies [][]byte
}

func newQuoteShapes(seed uint64) *quoteShapes {
	return &quoteShapes{rng: rand.New(rand.NewPCG(seed, 0x71756f7465)), grid: quoteGrid(), seen: map[string]bool{}}
}

// cell is the grid point of shape k; shapes are generated in order.
func (g *quoteShapes) cell(k int) quoteCell {
	if k < quoteWarmup {
		return g.grid[len(g.grid)*k/quoteWarmup]
	}
	i := (k - quoteWarmup) % len(g.grid)
	if i == 0 {
		g.rng.Shuffle(len(g.grid), func(a, b int) { g.grid[a], g.grid[b] = g.grid[b], g.grid[a] })
	}
	return g.grid[i]
}

// round2 rounds to hundredths.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// get returns shape k and its request body, generating up to k.
func (g *quoteShapes) get(k int) (quote.Request, []byte) {
	for len(g.reqs) <= k {
		c := g.cell(len(g.reqs))
		var req quote.Request
		for {
			work := round2(1 + g.rng.Float64()*39)
			req = quote.Request{
				WorkHours:          work,
				DeadlineHours:      round2(work * (1.1 + g.rng.Float64()*0.9)),
				HistoryWindowHours: float64(c.window),
				MaxZones:           c.zones,
			}
			norm := req
			norm.Normalize()
			if key := norm.Key(); !g.seen[key] {
				g.seen[key] = true
				break
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a Request of finite floats always encodes
		}
		g.reqs = append(g.reqs, req)
		g.bodies = append(g.bodies, body)
	}
	return g.reqs[k], g.bodies[k]
}

// quoteBench sends distinct-shape quotes over one keep-alive loopback
// connection to quote.NewHandler.
type quoteBench struct {
	shapes *quoteShapes
	market *marketSource
	svc    *quote.Service
	source *timedSource
	hand   *timedHandler
	client *http.Client
	url    string
	cancel context.CancelFunc
	served chan error

	digest    hash.Hash64
	digestN   int
	traced    bool
	last      quoteRecord
	lastReq   quote.Request
	lastPlans []quote.Plan
	probes    quoteProbes
}

// quoteRecord is what the server-side probes saw of one request.
type quoteRecord struct {
	handler, history time.Duration
	hist             *trace.Set
	clientRT         time.Duration
}

// quoteProbes accumulates the traced run's layer samples.
type quoteProbes struct {
	historyMS, handlerMS, overheadMS, rankMS []float64
	plans, mismatches                        int
	idxUS, fitUS                             []float64
	ev                                       core.Evaluator
}

func (b *quoteBench) setup(seed uint64) error {
	b.shapes = newQuoteShapes(seed)
	b.market = &marketSource{market: tracegen.MustGenerate(tracegen.HighVolatilityConfig(seed, quoteMarketMonths*tracegen.SamplesPerMonth))}
	b.source = &timedSource{inner: b.market}
	b.svc = &quote.Service{Source: b.source}
	b.hand = &timedHandler{inner: quote.NewHandler(b.svc), source: b.source, rec: make(chan quoteRecord, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.served = make(chan error, 1)
	srv := httpx.NewServer("", b.hand)
	go func() { b.served <- httpx.Serve(ctx, srv, ln, time.Second) }()
	b.url = "http://" + ln.Addr().String() + "/v1/quote"
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	b.digest = fnv.New64a()
	for k := 0; k < quoteWarmup; k++ {
		if err := b.quote(k); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *quoteBench) setTraced(on bool) {
	b.traced = on
	b.hand.traced.Store(on)
}

// op quotes shape quoteWarmup+i: the timed sequence continues where
// the warm-up stopped, so no shape is ever sent twice.
func (b *quoteBench) op(i int) error { return b.quote(quoteWarmup + i) }

// quote sends shape k and checks the response: 200, a cache miss, and
// at least one plan, ranked by non-decreasing predicted cost.
func (b *quoteBench) quote(k int) error {
	req, body := b.shapes.get(k)
	b.market.moveTo(k)
	start := time.Now()
	resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return err
	}
	if b.traced {
		select {
		case rec := <-b.hand.rec:
			rec.clientRT = rt
			b.last = rec
		case <-time.After(5 * time.Second):
			return fmt.Errorf("handler probe record missing for shape %d", k)
		}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shape %d: status %d: %s", k, resp.StatusCode, bytes.TrimSpace(data))
	}
	if c := resp.Header.Get("X-Quote-Cache"); c != string(quote.StatusMiss) {
		return fmt.Errorf("shape %d: X-Quote-Cache %q, want miss", k, c)
	}
	var out quote.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("shape %d: decoding response: %v", k, err)
	}
	plans := append([]quote.Plan{out.Best}, out.Alternatives...)
	if out.Evaluated < 1 || len(out.Best.Zones) == 0 {
		return fmt.Errorf("shape %d: no plan", k)
	}
	for j := 1; j < len(plans); j++ {
		if plans[j].PredictedCost < plans[j-1].PredictedCost {
			return fmt.Errorf("shape %d: plan %d costs %g after %g", k, j, plans[j].PredictedCost, plans[j-1].PredictedCost)
		}
	}
	if k < quoteDigestPrefix && k == b.digestN {
		b.digest.Write(data)
		b.digestN++
	}
	b.lastReq, b.lastPlans = req, plans
	return nil
}

// probe times the layers under the last quote from outside: a
// standalone Evaluator.Rank on the same window and request (whose best
// plan must match the served one), the trace index build and the
// Markov fits on that window.
func (b *quoteBench) probe(int) {
	p := &b.probes
	rec := b.last
	p.historyMS = append(p.historyMS, rec.history.Seconds()*1e3)
	p.handlerMS = append(p.handlerMS, rec.handler.Seconds()*1e3)
	p.overheadMS = append(p.overheadMS, (rec.clientRT-rec.handler).Seconds()*1e3)
	if rec.hist == nil {
		return
	}
	req := b.lastReq
	req.Normalize()
	start := time.Now()
	plans, err := p.ev.Rank(core.PlanRequest{
		History:        rec.hist,
		Work:           int64(math.Round(req.WorkHours * float64(trace.Hour))),
		Deadline:       int64(math.Round(req.DeadlineHours * float64(trace.Hour))),
		CheckpointCost: core.DefaultCheckpointCost,
		RestartCost:    core.DefaultCheckpointCost,
		OnDemandRate:   req.OnDemandPrice,
		MaxZones:       req.MaxZones,
	})
	p.rankMS = append(p.rankMS, time.Since(start).Seconds()*1e3)
	if err != nil || len(plans) == 0 || plans[0].PredictedCost != b.lastPlans[0].PredictedCost || plans[0].Bid != b.lastPlans[0].Bid {
		p.mismatches++
		return
	}
	p.plans += len(plans)
	w := make([][]float64, rec.hist.NumZones())
	for zi, s := range rec.hist.Series {
		w[zi] = s.Prices
	}
	idx, fit := timeIndexAndFit([][][]float64{w}, rec.hist.Step())
	p.idxUS = append(p.idxUS, idx...)
	p.fitUS = append(p.fitUS, fit...)
}

func (b *quoteBench) check(r *runner) {
	m := b.svc.Stats()
	if hits := m.CacheHits.Load(); hits != 0 {
		r.violate("quote-miss served %d plan-cache hits; every shape must miss", hits)
	}
	if n := b.probes.mismatches; n > 0 {
		r.violate("%d standalone Evaluator.Rank calls disagreed with the served best plan", n)
	}
	if r.seed != DefaultSeed {
		return
	}
	if b.digestN < quoteDigestPrefix {
		r.violate("only %d of the %d digested bodies were served; raise -seconds", b.digestN, quoteDigestPrefix)
		return
	}
	got := fmt.Sprintf("%016x", b.digest.Sum64())
	fmt.Printf("  body digest of the first %d quotes: %s\n", quoteDigestPrefix, got)
	if got != quoteBodyDigest {
		r.violate("body digest %s, golden %s", got, quoteBodyDigest)
	}
}

func (b *quoteBench) layers(r *runner) {
	p := &b.probes
	n := len(p.handlerMS)
	if n == 0 {
		return
	}
	m := b.svc.Stats()
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	r.set("quote.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses), "quote.Metrics")
	r.set("quote.history_ms", median(p.historyMS), n, "wrapped HistorySource: tail slice + digest")
	r.set("quote.handler_ms", median(p.handlerMS), n, "wrapped http.Handler")
	r.set("httpx.client_overhead_ms", median(p.overheadMS), n, "client round trip - handler time")
	r.set("core.rank_ms_p50", median(p.rankMS), len(p.rankMS), "standalone Evaluator.Rank on each quote's window")
	r.set("core.rank.plans", float64(p.plans)/float64(len(p.rankMS)), len(p.rankMS), "per Rank")
	r.set("trace.index_build_us", median(p.idxUS), len(p.idxUS), "per quote window (12-168 h)")
	r.set("markov.fit_us", median(p.fitUS), len(p.fitUS), "per quote window (12-168 h)")
}

func (b *quoteBench) close() {
	if b.cancel != nil {
		b.cancel()
		<-b.served
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// quoteMarketMonths is the length of the quoted market. Quotes sample
// windows all along it, so a longer market averages a run over more of
// the seeded volatility and seeds differ less.
const quoteMarketMonths = 6

// marketSource serves the history of a seeded market as a live feed
// would: quote k sees the market up to its own "now", so quotes plan
// over different stretches of it instead of one fixed tail. Each fetch
// delegates to a quote.StaticSource over the market cut at that
// instant.
type marketSource struct {
	market *trace.Set

	mu  sync.Mutex
	now int64
}

// moveTo sets the clock for quote k. The positions form a Weyl sequence
// over the part of the market that leaves a full 168 h window behind
// it, so even the first quotes of a run spread across all of it.
func (m *marketSource) moveTo(k int) {
	step := m.market.Step()
	lo := m.market.Start() + quoteMaxWindow*trace.Hour
	n := (m.market.End() - lo) / step
	pos := int64(math.Mod(float64(k)*0.6180339887498949, 1) * float64(n))
	m.mu.Lock()
	m.now = lo + pos*step
	m.mu.Unlock()
}

func (m *marketSource) History(ctx context.Context, window int64) (*trace.Set, string, error) {
	m.mu.Lock()
	now := m.now
	m.mu.Unlock()
	src := quote.StaticSource{Set: m.market.Slice(m.market.Start(), now)}
	return src.History(ctx, window)
}

// timedSource wraps the service's history source, recording each
// fetch's duration and window for the handler probe.
type timedSource struct {
	inner quote.HistorySource

	mu   sync.Mutex
	took time.Duration
	hist *trace.Set
}

func (s *timedSource) History(ctx context.Context, window int64) (*trace.Set, string, error) {
	start := time.Now()
	hist, digest, err := s.inner.History(ctx, window)
	s.mu.Lock()
	s.took, s.hist = time.Since(start), hist
	s.mu.Unlock()
	return hist, digest, err
}

// timedHandler wraps the quote handler. While traced it hands the
// client one record per request: handler time and what the history
// source saw.
type timedHandler struct {
	inner  http.Handler
	source *timedSource
	traced atomic.Bool
	rec    chan quoteRecord
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.traced.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	took := time.Since(start)
	h.source.mu.Lock()
	rec := quoteRecord{handler: took, history: h.source.took, hist: h.source.hist}
	h.source.mu.Unlock()
	select {
	case h.rec <- rec:
	default: // the client only waits for records of traced quotes
	}
}
