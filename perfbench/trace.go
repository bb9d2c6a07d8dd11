package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"recipemodel"
	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/index"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/resilience"
	"recipemodel/internal/rules"
	"recipemodel/internal/server"
)

// spanHeader carries the client span id of a traced request, so the
// handler span can name its parent.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Client spans are the benchmark's own
// requests; handler spans wrap (*server.Server).ServeHTTP; pipeline
// and rules spans wrap the server.Pipeline and server.RulesAnnotator
// calls the server makes.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Phrases int    `json:"phrases"`
	Phase   string `json:"phase,omitempty"`
	job     int    // client spans: the job index
	key     string // pipeline and rules spans: the first phrase
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. Recording is on only during the traced phases.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	on      atomic.Bool
	decodes atomic.Int64 // phrases handed to the pipeline while on
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a pipeline or rules span that began at start.
func (t *tracer) child(name string, start int64, phrases []string) {
	if !t.on.Load() {
		return
	}
	end := t.now()
	s := span{Name: name, ID: t.ids.Add(1), Start: start, End: end, Phrases: len(phrases)}
	if len(phrases) > 0 {
		s.key = phrases[0]
	}
	if name != "rules.annotate" {
		t.decodes.Add(int64(len(phrases)))
	}
	t.add(s)
}

// instrument makes a phase send span ids and record client spans.
func (t *tracer) instrument(ph *phase, l *annotateLoad, batch bool) {
	name := "client.single"
	if batch {
		name = "client.batch"
	}
	phaseName := ph.name
	ph.spanIDs = &t.ids
	ph.onSpan = func(job int, cs clientSpan) {
		n := 1
		if batch {
			n = len(l.batchPhrases(job))
		}
		t.add(span{Name: name, ID: cs.id, Start: cs.start, End: cs.end, Phrases: n, Phase: phaseName, job: job})
	}
}

// handler wraps the server so each request records a handler span
// whose parent is the client span named in the request header.
func (t *tracer) handler(s *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			s.ServeHTTP(w, r)
			return
		}
		start := t.now()
		s.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.add(span{Name: "server.handler", ID: t.ids.Add(1), Parent: parent, Start: start, End: t.now()})
	})
}

// pipeAdapter serves a recipemodel.Pipeline through server.Pipeline,
// as recipeserver does.
type pipeAdapter struct{ p *recipemodel.Pipeline }

func (a pipeAdapter) AnnotateIngredient(phrase string) core.IngredientRecord {
	return a.p.AnnotateIngredient(phrase)
}

func (a pipeAdapter) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	return a.p.AnnotateIngredientChecked(phrase)
}

func (a pipeAdapter) AnnotateIngredientsContext(ctx context.Context, phrases []string) ([]core.IngredientRecord, error) {
	return a.p.AnnotateIngredientsContext(ctx, phrases)
}

func (a pipeAdapter) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	return a.p.AnnotateIngredientsPartial(ctx, phrases)
}

func (a pipeAdapter) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	return a.p.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
}

// tracedPipe records a span around every server.Pipeline call.
type tracedPipe struct {
	inner server.Pipeline
	t     *tracer
}

func (p tracedPipe) AnnotateIngredient(phrase string) core.IngredientRecord {
	start := p.t.now()
	r := p.inner.AnnotateIngredient(phrase)
	p.t.child("pipeline.annotate", start, []string{phrase})
	return r
}

func (p tracedPipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	start := p.t.now()
	r, err := p.inner.AnnotateIngredientChecked(phrase)
	p.t.child("pipeline.annotate", start, []string{phrase})
	return r, err
}

func (p tracedPipe) AnnotateIngredientsContext(ctx context.Context, phrases []string) ([]core.IngredientRecord, error) {
	start := p.t.now()
	r, err := p.inner.AnnotateIngredientsContext(ctx, phrases)
	p.t.child("pipeline.annotate_batch", start, phrases)
	return r, err
}

func (p tracedPipe) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	start := p.t.now()
	r, rej, err := p.inner.AnnotateIngredientsPartial(ctx, phrases)
	p.t.child("pipeline.annotate_batch", start, phrases)
	return r, rej, err
}

func (p tracedPipe) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	start := p.t.now()
	r, err := p.inner.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
	p.t.child("pipeline.model_recipe", start, nil)
	return r, err
}

// tracedRules records a span around every rules-tier call.
type tracedRules struct {
	inner server.RulesAnnotator
	t     *tracer
}

func (r tracedRules) Annotate(phrase string) (core.IngredientRecord, float64, error) {
	start := r.t.now()
	rec, conf, err := r.inner.Annotate(phrase)
	r.t.child("rules.annotate", start, []string{phrase})
	return rec, conf, err
}

// serverConfig is recipeserver's Config at its flag defaults.
func serverConfig(ra server.RulesAnnotator) server.Config {
	open := 5 * time.Second
	return server.Config{
		MaxInFlight:    1024,
		RequestTimeout: 30 * time.Second,
		RetryAfter:     time.Second,
		CacheEntries:   64 << 10,
		Rules:          ra,
		RulesThreshold: 1,
		Breaker: breaker.Config{
			Window:      64,
			FailureRate: 0.5,
			MinSamples:  8,
			OpenTimeout: open,
			MaxProbes:   1,
			CloseAfter:  3,
			ReopenBackoff: &resilience.Backoff{
				Base: open, Max: 8 * open, Attempts: 6, Jitter: 0.5,
				Mode: resilience.JitterSpread, Seed: int64(os.Getpid()),
			},
		},
	}
}

// inproc is an in-process server on a loopback listener.
type inproc struct {
	http *http.Server
	base string
	done chan error
}

// startInproc builds a server with recipeserver's default Config; with
// a tracer its pipeline, rules tier and handler record spans.
func startInproc(pipe *recipemodel.Pipeline, ix *index.Index, t *tracer) (*inproc, error) {
	var p server.Pipeline = pipeAdapter{pipe}
	var ra server.RulesAnnotator = rules.New()
	if t != nil {
		p, ra = tracedPipe{p, t}, tracedRules{ra, t}
	}
	s := server.NewWithConfig(p, ix, serverConfig(ra))
	s.SetReady(true)
	var h http.Handler = s
	if t != nil {
		h = t.handler(s)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &inproc{http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { in.done <- in.http.Serve(ln) }()
	return in, nil
}

func (in *inproc) stop() error {
	err := in.http.Close()
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// runTraced is the per-layer run: tracing overhead, the traced singles
// and batch phases against an in-process server, direct ServeHTTP
// allocation counts, single-goroutine layer replays, the worker
// scaling sweep and the mine layers.
func runTraced(cfg config, res *result) error {
	singleDur, batchDur, _ := split(cfg.seconds)
	load, err := newAnnotateLoad(cfg.wl, cfg.seed, singleDur.Seconds(), batchDur.Seconds())
	if err != nil {
		return err
	}
	pipe, err := loadPipeline(cfg.model)
	if err != nil {
		return err
	}
	// recipeserver's default -corpus 200 boot mining.
	ix := index.New(pipe.ModelRecipes(recipemodel.Inputs(recipemodel.SyntheticRecipes(200, 1))))
	// The end-to-end run's connections, so spans describe its traffic.
	conns := newConns(loadConns)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()

	overhead, err := traceOverhead(pipe, ix, load, conns)
	if err != nil {
		return err
	}
	res.set("trace.overhead", overhead)

	t := newTracer()
	singles, err := tracedPhases(cfg, res, pipe, ix, load, conns, t, singleDur/2, batchDur/2)
	if err != nil {
		return err
	}
	lay, err := replayLayers(cfg, res, load, singles)
	if err != nil {
		return err
	}
	attribute(res, t, load, lay)
	if err := writeSpans(cfg, t); err != nil {
		return err
	}
	if err := allocsPerRequest(res, pipe, ix, load); err != nil {
		return err
	}
	if err := batchScaling(cfg, res, pipe, load); err != nil {
		return err
	}
	return mineLayers(cfg, res)
}

// traceOverhead runs the same fixed singles job list against a plain
// and a traced in-process server, alternating, and returns the median
// traced wall time over the median plain one.
func traceOverhead(pipe *recipemodel.Pipeline, ix *index.Index, load *annotateLoad, conns []*conn) (float64, error) {
	jobs := 2000
	if load.hot {
		jobs = 6000
	}
	var plain, traced []float64
	for trial := 0; trial < 6; trial++ {
		var t *tracer
		if trial%2 == 1 {
			t = newTracer()
		}
		in, err := startInproc(pipe, ix, t)
		if err != nil {
			return 0, err
		}
		ph := load.singlesPhase(in.base)
		err = ph.sendAll(conns, load.warmSingles)
		var r phaseResult
		if err == nil {
			if t != nil {
				t.on.Store(true)
				t.instrument(&ph, load, false)
			}
			ph.jobs = load.warmSingles + jobs
			t0 := time.Now()
			r = ph.run(conns, load.warmSingles, time.Minute, time.Now())
			if t != nil {
				traced = append(traced, elapsed(t0))
			} else {
				plain = append(plain, elapsed(t0))
			}
		}
		if serr := in.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
		if r.failed > 0 {
			return 0, fmt.Errorf("tracing overhead trial: %d requests failed: %v", r.failed, r.errs)
		}
	}
	return median(traced) / median(plain), nil
}

// tracedPhases runs the singles and batch phases against a traced
// in-process server, with GC figures and /readyz counters around them,
// and returns the number of singles sent.
func tracedPhases(cfg config, res *result, pipe *recipemodel.Pipeline, ix *index.Index, load *annotateLoad, conns []*conn, t *tracer, singleDur, batchDur time.Duration) (int64, error) {
	in, err := startInproc(pipe, ix, t)
	if err != nil {
		return 0, err
	}
	probe := &http.Client{Timeout: 10 * time.Second}
	gc := startGCWatch()
	var sr, br phaseResult
	sr.next, br.next = load.warmSingles, load.warmBatches
	deltas, err := annotateRound(conns, probe, in.base, load, &sr, &br, singleDur, batchDur, t.epoch, t)
	decodes := t.decodes.Load()
	gcCPU, heapMB := gc.stop()
	if serr := in.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	v := load.verify(pipe)
	sr.ok, sr.failed = sr.ok-int64(v.badSingles), sr.failed+int64(v.badSingles)
	br.ok, br.failed = br.ok-int64(v.badBatches), br.failed+int64(v.badBatches)
	for _, p := range v.problems {
		res.fail("check after the window: %s", p)
	}
	gateCounters(res, cfg.wl, deltas)
	res.addPhase(sr)
	res.addPhase(br)

	phrases := sr.ok + br.ok*batchSize
	var all counters
	for _, d := range deltas {
		all.add(d)
	}
	perK := func(n int64) float64 { return 1000 * float64(n) / float64(max(phrases, 1)) }
	res.set("cache.hit_ratio", all.hitRatio())
	res.set("cache.evictions_per_kphrase", perK(all.evictions))
	// A single that neither hits the cache nor decodes was coalesced
	// onto another request's decode. (Raw misses would count a
	// flight leader twice: it looks the key up again before decoding.)
	singleDecodes := int64(0)
	for _, s := range t.spans {
		if s.Name == "pipeline.annotate" {
			singleDecodes++
		}
	}
	res.set("flight.coalesced_per_kphrase", 1000*float64(sr.ok-deltas[0].hits-singleDecodes)/float64(max(sr.ok, 1)))
	res.set("core.decodes_per_kphrase", perK(decodes))
	res.set("resilience.shed", float64(all.shed))
	res.set("rules.degraded_served", float64(all.degraded))
	res.set("breaker.trips", float64(all.trips))
	res.set("server.resp_bytes_per_phrase", float64(sr.bytes)/float64(max(sr.ok, 1)))
	res.set("gc.cpu_fraction", gcCPU)
	res.set("gc.heap_mb", heapMB)
	return sr.sent, nil
}

// attribute turns the spans into self times. Each handler span is
// linked to its client span by id; each pipeline or rules span to the
// handler span that contains it and whose request carried its phrase.
func attribute(res *result, t *tracer, load *annotateLoad, lay layerCosts) {
	clients := map[int64]*span{}
	var handlers []*span
	var children []*span
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "client.single", "client.batch":
			clients[s.ID] = s
		case "server.handler":
			handlers = append(handlers, s)
		default:
			children = append(children, s)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].Start < handlers[j].Start })
	carries := func(c *span, phrase string) bool {
		if c.Name == "client.single" {
			return load.texts[load.singlePhrase(c.job)] == phrase
		}
		for _, p := range load.batchPhrases(c.job) {
			if load.texts[p] == phrase {
				return true
			}
		}
		return false
	}
	covered := map[int64]int64{} // client span id → child time inside it
	for _, ch := range children {
		i := sort.Search(len(handlers), func(i int) bool { return handlers[i].Start > ch.Start })
		for j := i - 1; j >= 0 && j >= i-64; j-- {
			h := handlers[j]
			c := clients[h.Parent]
			if c == nil || h.End < ch.End || !carries(c, ch.key) {
				continue
			}
			ch.Parent = h.ID
			covered[c.ID] += ch.dur()
			break
		}
	}
	handlerTime := map[int64]int64{}
	for _, h := range handlers {
		if clients[h.Parent] != nil {
			handlerTime[h.Parent] = h.dur()
		}
	}
	var n, self, transport, reqTotal, attributed float64
	for id, c := range clients {
		d := float64(c.dur())
		reqTotal += d
		tr := d - float64(handlerTime[id])
		attributed += tr + float64(covered[id]) + lay.inHandler(c)
		if c.Name == "client.single" {
			n++
			self += d - float64(covered[id])
			transport += tr
		}
	}
	res.set("server.self_us", self/max(n, 1)/1e3)
	res.set("http.transport_us", transport/max(n, 1)/1e3)
	res.set("trace.unattributed", (reqTotal-attributed)/max(reqTotal, 1))
	res.Details["spans"] = len(t.spans)
}

// writeSpans writes the recorded spans as JSON lines to the results
// directory.
func writeSpans(cfg config, t *tracer) error {
	path := filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.wl.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
