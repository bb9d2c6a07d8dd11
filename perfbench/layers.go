package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"recipemodel"
	"recipemodel/internal/cache"
	"recipemodel/internal/core"
	"recipemodel/internal/depparse"
	"recipemodel/internal/index"
	"recipemodel/internal/lemma"
	"recipemodel/internal/ner"
	"recipemodel/internal/persist"
	"recipemodel/internal/rules"
	"recipemodel/internal/server"
	"recipemodel/internal/tokenize"
)

// replayTime is the least time each single-goroutine replay runs.
const replayTime = 150 * time.Millisecond

// nsPerPass runs pass until replayTime has passed (at least twice) and
// returns the mean nanoseconds of one pass.
func nsPerPass(pass func()) float64 {
	reps := 0
	t0 := time.Now()
	for reps < 2 || time.Since(t0) < replayTime {
		pass()
		reps++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps)
}

// mallocsPer returns the heap allocations fn makes, divided by n.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerCosts are replay-measured costs of the work a handler does
// around the pipeline, per phrase; they attribute request time that
// no span covers.
type layerCosts struct {
	singleDecode, singleEncode float64 // JSON of one /annotate request and response
	batchDecode, batchEncode   float64 // JSON of a batch, per phrase
	key, get, put              float64 // canonical key, cache Get, cache Put
	missShare                  float64 // share of phrases that missed the cache
}

// inHandler estimates the replayed layer time inside one request.
func (l layerCosts) inHandler(c *span) float64 {
	n := float64(c.Phrases)
	own := n * (l.key + l.get + l.missShare*l.put)
	if c.Name == "client.single" {
		return own + l.singleDecode + l.singleEncode
	}
	return own + n*(l.batchDecode+l.batchEncode)
}

// replayLayers times each module's public functions on the phase's
// inputs, one goroutine, no server.
func replayLayers(cfg config, res *result, load *annotateLoad, singlesSent int64) (layerCosts, error) {
	var lc layerCosts
	ing, ins, err := persist.LoadBundleFile(cfg.model)
	if err != nil {
		return lc, err
	}
	cp := core.NewPipeline(nil, ing, ins, nil)

	// The distinct phrases of the singles phase.
	var phrases []string
	var bodies [][]byte
	seen := map[int]bool{}
	for job := 0; len(phrases) < scoredPhrases && job < load.warmSingles+int(singlesSent); job++ {
		p := load.singlePhrase(job)
		if !seen[p] {
			seen[p] = true
			phrases = append(phrases, load.texts[p])
			bodies = append(bodies, load.bodies[p])
		}
	}
	n := float64(len(phrases))

	clean := make([]string, len(phrases))
	words := make([][]string, len(phrases))
	spans := make([][]ner.Span, len(phrases))
	recs := make([]core.IngredientRecord, len(phrases))
	tokens := 0
	for i, p := range phrases {
		if clean[i], err = core.CanonicalKey(p); err != nil {
			return lc, fmt.Errorf("replay phrase %q: %w", p, err)
		}
		words[i] = tokenize.Words(tokenize.AppendTo(nil, clean[i]))
		spans[i] = ing.Predict(words[i])
		tokens += len(words[i])
		if recs[i], err = cp.AnnotateIngredientChecked(p); err != nil {
			return lc, fmt.Errorf("replay phrase %q: %w", p, err)
		}
	}
	lc.key = nsPerPass(func() {
		for _, p := range phrases {
			_, _ = core.CanonicalKey(p)
		}
	}) / n
	res.set("core.sanitize_ns", lc.key)
	res.set("core.decode_us", nsPerPass(func() {
		for _, p := range phrases {
			_, _ = cp.AnnotateIngredientChecked(p)
		}
	})/n/1e3)
	toks := make([]tokenize.Token, 0, 64)
	res.set("tokenize.ns_per_phrase", nsPerPass(func() {
		for _, c := range clean {
			toks = tokenize.AppendTo(toks[:0], c)
		}
	})/n)
	buf := make([]ner.Span, 0, 16)
	res.set("ner.ingredient_ns_per_token", nsPerPass(func() {
		for _, w := range words {
			buf = ing.AppendPredict(buf[:0], w)
		}
	})/float64(tokens))
	lem := lemma.New()
	record := func() {
		for i, p := range phrases {
			_ = core.RecordFromSpans(p, words[i], spans[i], lem)
		}
	}
	res.set("core.record_ns", nsPerPass(record)/n)
	res.set("core.record_allocs", mallocsPer(len(phrases), record))

	replayJSON(res, &lc, load, bodies, recs)
	replayCache(res, &lc, load, singlesSent)
	replayInstructions(res, cp, cfg.seed)
	return lc, nil
}

// replayJSON times encoding/json on the request bodies and records,
// shaped the way the server decodes and writes them.
func replayJSON(res *result, lc *layerCosts, load *annotateLoad, bodies [][]byte, recs []core.IngredientRecord) {
	n := float64(len(bodies))
	var out bytes.Buffer
	lc.singleDecode = nsPerPass(func() {
		for _, b := range bodies {
			var req struct {
				Phrase string `json:"phrase"`
			}
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			_ = dec.Decode(&req)
		}
	}) / n
	lc.singleEncode = nsPerPass(func() {
		for i := range recs {
			out.Reset()
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			_ = enc.Encode(recs[i])
		}
	}) / n
	res.set("json.decode_ns_per_phrase", lc.singleDecode)
	res.set("json.encode_ns_per_phrase", lc.singleEncode)

	// A batch envelope of the same records, in the server's shape.
	type item struct {
		Status string                 `json:"status"`
		Record *core.IngredientRecord `json:"record,omitempty"`
	}
	env := struct {
		Results  []item `json:"results"`
		OK       int    `json:"ok"`
		Rejected int    `json:"rejected"`
	}{OK: min(batchSize, len(recs))}
	for i := 0; i < env.OK; i++ {
		env.Results = append(env.Results, item{Status: "ok", Record: &recs[i]})
	}
	body := load.batchBody(load.warmBatches)
	per := float64(len(load.batchPhrases(load.warmBatches)))
	lc.batchDecode = nsPerPass(func() {
		var req struct {
			Phrases []string `json:"phrases"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
	}) / per
	lc.batchEncode = nsPerPass(func() {
		out.Reset()
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		_ = enc.Encode(env)
	}) / float64(env.OK)
}

// replayCache replays the singles phase's key stream into a cache of
// recipeserver's default size, in the server's order: Get, then Put on
// a miss. Gets and Puts are timed in chunks so the clock reads stay
// off the per-call cost.
func replayCache(res *result, lc *layerCosts, load *annotateLoad, singlesSent int64) {
	key := func(job int) string {
		k, _ := core.CanonicalKey(load.texts[load.singlePhrase(job)])
		return k
	}
	stream := make([]string, 0, min(int(singlesSent), 200000))
	for job := load.warmSingles; len(stream) < cap(stream); job++ {
		stream = append(stream, key(job))
	}
	warm := make([]string, load.warmSingles)
	for job := range warm {
		warm[job] = key(job)
	}
	c := cache.New[core.IngredientRecord](64 << 10)
	t0 := time.Now()
	for _, k := range warm {
		c.Put(k, 1, core.IngredientRecord{Phrase: k})
	}
	warmPut := float64(time.Since(t0).Nanoseconds()) / float64(max(len(warm), 1))
	var getNs, putNs, gets, puts int64
	miss := make([]bool, 256)
	for lo := 0; lo < len(stream); lo += len(miss) {
		chunk := stream[lo:min(lo+len(miss), len(stream))]
		t0 := time.Now()
		for i, k := range chunk {
			_, ok := c.Get(k, 1)
			miss[i] = !ok
		}
		t1 := time.Now()
		for i, k := range chunk {
			if miss[i] {
				c.Put(k, 1, core.IngredientRecord{Phrase: k})
				puts++
			}
		}
		getNs += t1.Sub(t0).Nanoseconds()
		putNs += time.Since(t1).Nanoseconds()
		gets += int64(len(chunk))
	}
	lc.get = float64(getNs) / float64(max(gets, 1))
	lc.put = warmPut // the only Puts the hot mix makes are its warm-up's
	if puts > 0 {
		lc.put = float64(putNs) / float64(puts)
	}
	lc.missShare = float64(puts) / float64(max(gets, 1))
	res.set("cache.get_ns", lc.get)
	res.set("cache.put_ns", lc.put)
}

// replayInstructions times the instruction stack stage by stage on the
// steps of the recipes `mine` would mine for the seed.
func replayInstructions(res *result, cp *core.Pipeline, seed int64) {
	steps := recipeSteps(100, seed)
	var toks [][]string
	var tags [][]string
	var ents [][]ner.Span
	var trees []*depparse.Tree
	tokens, rels := 0, 0
	for _, st := range steps {
		clean, err := core.CanonicalKey(st)
		if err != nil {
			continue
		}
		w := tokenize.Words(tokenize.AppendTo(nil, clean))
		if len(w) == 0 {
			continue
		}
		toks = append(toks, w)
		tags = append(tags, cp.POS.Tag(w))
		ents = append(ents, cp.InstructionNER.Predict(w))
		trees = append(trees, depparse.Parse(w, tags[len(tags)-1]))
		rels += len(cp.Extractor.Extract(trees[len(trees)-1], ents[len(ents)-1]))
		tokens += len(w)
	}
	n := float64(len(toks))
	buf := make([]ner.Span, 0, 16)
	res.set("ner.instruction_ns_per_token", nsPerPass(func() {
		for _, w := range toks {
			buf = cp.InstructionNER.AppendPredict(buf[:0], w)
		}
	})/float64(tokens))
	res.set("postag.ns_per_token", nsPerPass(func() {
		for _, w := range toks {
			_ = cp.POS.Tag(w)
		}
	})/float64(tokens))
	res.set("depparse.ns_per_step", nsPerPass(func() {
		for i, w := range toks {
			_ = depparse.Parse(w, tags[i])
		}
	})/n)
	res.set("relations.ns_per_step", nsPerPass(func() {
		for i := range trees {
			_ = cp.Extractor.Extract(trees[i], ents[i])
		}
	})/n)
	res.set("relations.per_step", float64(rels)/n)
}

// allocsPerRequest counts heap allocations per request by calling
// (*server.Server).ServeHTTP directly, on a plain server warmed like
// the timed phases; requests and recorders are built beforehand.
func allocsPerRequest(res *result, pipe *recipemodel.Pipeline, ix *index.Index, load *annotateLoad) error {
	s := server.NewWithConfig(pipeAdapter{pipe}, ix, serverConfig(rules.New()))
	s.SetReady(true)
	serve := func(path string, body []byte) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code
	}
	for job := 0; job < load.warmSingles; job++ {
		serve("/annotate", load.bodies[load.singlePhrase(job)])
	}
	for job := 0; job < load.warmBatches; job++ {
		serve("/annotate/batch", load.batchBody(job))
	}
	measure := func(path string, n int, body func(job int) []byte, first int) (float64, error) {
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(first+i)))
			recs[i] = httptest.NewRecorder()
			recs[i].Body.Grow(64 << 10)
		}
		allocs := mallocsPer(n, func() {
			for i := range reqs {
				s.ServeHTTP(recs[i], reqs[i])
			}
		})
		for _, r := range recs {
			if r.Code != http.StatusOK {
				return 0, fmt.Errorf("direct ServeHTTP %s answered %d: %.200s", path, r.Code, r.Body.Bytes())
			}
		}
		return allocs, nil
	}
	perReq, err := measure("/annotate", 2000, func(job int) []byte { return load.bodies[load.singlePhrase(job)] }, load.warmSingles)
	if err != nil {
		return err
	}
	perBatch, err := measure("/annotate/batch", 64, load.batchBody, load.warmBatches)
	if err != nil {
		return err
	}
	res.set("server.allocs_per_req", perReq)
	res.set("server.allocs_per_phrase", perBatch/batchSize)
	return nil
}

// batchScaling times batch decode (the worker-pool partial API the
// batch endpoint calls) at 1..nproc workers on the batch phase's
// phrases.
func batchScaling(cfg config, res *result, pipe *recipemodel.Pipeline, load *annotateLoad) error {
	ing, ins, err := persist.LoadBundleFile(cfg.model)
	if err != nil {
		return err
	}
	cp := core.NewPipeline(nil, ing, ins, nil)
	var phrases []string
	for job := load.warmBatches; job < load.warmBatches+128; job++ {
		for _, p := range load.batchPhrases(job) {
			phrases = append(phrases, load.texts[p])
		}
	}
	ctx := context.Background()
	type point struct {
		Workers       int     `json:"workers"`
		PhrasesPerSec float64 `json:"phrases_per_s"`
	}
	var curve []point
	for w := 1; w <= cfg.conns; w++ {
		var walls []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			_, rejs, err := cp.AnnotateIngredientsPartial(ctx, phrases, w)
			walls = append(walls, elapsed(t0))
			if err != nil || len(rejs) > 0 {
				return fmt.Errorf("batch decode at %d workers: %v, %d rejected", w, err, len(rejs))
			}
		}
		curve = append(curve, point{w, float64(len(phrases)) / median(walls)})
	}
	res.Details["batch_decode_scaling"] = curve
	note := "batch decode scaling, phrases/s by workers:"
	for _, pt := range curve {
		note += fmt.Sprintf(" %d: %.0f", pt.Workers, pt.PhrasesPerSec)
	}
	res.Notes = append(res.Notes, note)
	res.set("parallel.batch_speedup", curve[len(curve)-1].PhrasesPerSec/curve[0].PhrasesPerSec)
	return nil
}

// mineLayers runs `recipemine mine` at 1..nproc workers (the scaling
// curve), then alternates streaming and checkpointed runs at nproc
// workers for the checkpoint overhead. Rates count mining alone, from
// the first record written to exit. Every output must equal the
// one-worker output.
func mineLayers(cfg config, res *result) error {
	ph := phaseResult{name: "mine-sweep"}
	type point struct {
		Workers       int     `json:"workers"`
		RecipesPerSec float64 `json:"recipes_per_s"`
	}
	var curve []point
	var ref []byte
	t0 := time.Now()
	mine := func(workers int, durable bool, what string) (float64, error) {
		r, err := runMine(cfg.bin, cfg.model, cfg.work, mineRecipes, cfg.seed, workers, durable)
		if err != nil {
			return 0, err
		}
		ph.sent++
		switch {
		case ref == nil:
			ref = r.out
			ph.ok++
		case !bytes.Equal(r.out, ref) || len(r.dropped) > 0 || r.rate == 0:
			ph.failed++
			ph.errs = append(ph.errs, what+" output differs from the one-worker output")
		default:
			ph.ok++
		}
		return r.rate, nil
	}
	for w := 1; w <= cfg.conns; w++ {
		rate, err := mine(w, true, fmt.Sprintf("-workers %d", w))
		if err != nil {
			return err
		}
		curve = append(curve, point{w, rate})
	}
	durable := []float64{curve[len(curve)-1].RecipesPerSec}
	var stream []float64
	for rep := 0; rep < 3; rep++ {
		rate, err := mine(cfg.conns, rep%2 == 1, "checkpoint comparison")
		if err != nil {
			return err
		}
		if rep%2 == 1 {
			durable = append(durable, rate)
		} else {
			stream = append(stream, rate)
		}
	}
	ph.dur = time.Since(t0)
	res.addPhase(ph)
	res.Details["mine_scaling"] = curve
	note := "mine scaling, recipes/s by workers:"
	for _, pt := range curve {
		note += fmt.Sprintf(" %d: %.0f", pt.Workers, pt.RecipesPerSec)
	}
	res.Notes = append(res.Notes, note)
	res.set("parallel.mine_speedup", curve[len(curve)-1].RecipesPerSec/curve[0].RecipesPerSec)
	res.set("checkpoint.overhead", median(stream)/median(durable))
	return nil
}

// gcWatch follows the Go runtime's GC CPU time and heap size while the
// traced phases run. The traced process also holds the benchmark's
// inputs, so the heap figure is the growth over the live heap at the
// start.
type gcWatch struct {
	start    [2]float64 // GC and total CPU seconds at start
	baseHeap uint64     // live objects after a collection at start
	peakHeap uint64
	quit     chan struct{}
	done     chan struct{}
}

var gcMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGCMetrics() (gcCPU, totalCPU float64, heap uint64) {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startGCWatch() *gcWatch {
	g := &gcWatch{quit: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	g.start[0], g.start[1], g.baseHeap = readGCMetrics()
	g.peakHeap = g.baseHeap
	go func() {
		defer close(g.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-tick.C:
				_, _, heap := readGCMetrics()
				g.peakHeap = max(g.peakHeap, heap)
			}
		}
	}()
	return g
}

// stop ends the watch and returns the share of CPU time spent in GC
// and the peak heap growth in MB.
func (g *gcWatch) stop() (cpuFraction, heapMB float64) {
	close(g.quit)
	<-g.done
	gcCPU, total, _ := readGCMetrics()
	if d := total - g.start[1]; d > 0 {
		cpuFraction = (gcCPU - g.start[0]) / d
	}
	return cpuFraction, float64(g.peakHeap-g.baseHeap) / (1 << 20)
}
