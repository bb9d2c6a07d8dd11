package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"recipemodel"
	"recipemodel/internal/core"
)

const (
	// rounds is how many times an end-to-end run cycles through its
	// measurements: a server set-up, a singles slice, a batch slice, a
	// one-recipe mine and timed mines. Spreading each metric over the
	// whole run keeps a slow stretch of a shared machine from landing
	// on one metric only.
	rounds = 3
	// mineRecipes is the corpus size of one timed `mine` run.
	mineRecipes = 1500
	// mineWindow is the width of the windows a timed mine's rate is
	// taken over; a mine reports a median over windows, as the HTTP
	// phases do, so one slow stretch of a run moves a few windows.
	mineWindow = 250 * time.Millisecond
	// hotHitFloor is the cache hit ratio below which annotate-hot is
	// not in its heavy-tail regime.
	hotHitFloor = 0.85
	// loadConns is the number of closed-loop connections of the HTTP
	// phases and mineWorkers the -workers of the timed mines. One of
	// each keeps the load to about one busy thread at a time: on a
	// machine of a few vCPUs shared with other guests, work that keeps
	// every vCPU busy at once measures the host's scheduler more than
	// the program. On a 2-vCPU Xeon guest, same-seed 3000-recipe mines
	// spread by about 15% at -workers 2 and by about 5% at -workers 1,
	// and the singles figures spread wider on two connections than on
	// one.
	// The traced run sweeps 1..nproc workers.
	loadConns   = 1
	mineWorkers = 1
)

// split divides a run's measurement time across its phases: singles,
// batch and mine.
func split(seconds int) (singles, batch, mine time.Duration) {
	t := time.Duration(seconds) * time.Second
	return t * 35 / 100, t * 35 / 100, t * 30 / 100
}

// runEndToEnd measures the real binaries in rounds. Each round starts
// a recipeserver with its default flags, times it to readiness, warms
// it up, runs a singles slice and a batch slice on it, and stops it;
// then it runs `recipemine mine`. A fresh server per round keeps one
// process's luck (its memory layout, its scheduling) out of the
// figures.
func runEndToEnd(cfg config, res *result) error {
	singleDur, batchDur, mineDur := split(cfg.seconds)
	load, err := newAnnotateLoad(cfg.wl, cfg.seed, singleDur.Seconds(), batchDur.Seconds())
	if err != nil {
		return err
	}
	res.lap("inputs")
	logf, err := os.Create(filepath.Join(cfg.work, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	conns := newConns(loadConns)
	probe := &http.Client{Timeout: 10 * time.Second}
	var setups, setupSteal, peaks []float64
	var sr, br phaseResult
	var deltas [2]counters
	mine := &mineState{}
	sr.next, br.next = load.warmSingles, load.warmBatches
	for round := 0; round < rounds; round++ {
		stolen := startSteal()
		srv, took, err := startServer(cfg.bin, cfg.model, logf)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		setupSteal = append(setupSteal, stolen.share())
		d, err := annotateRound(conns, probe, srv.base, load, &sr, &br, singleDur/rounds, batchDur/rounds, time.Now(), nil)
		for _, c := range conns {
			c.close()
		}
		peak, herr := vmHWM(srv.cmd.Process.Pid)
		if err == nil {
			err = herr
		}
		if serr := srv.stop(30 * time.Second); serr != nil && err == nil {
			err = fmt.Errorf("recipeserver did not drain cleanly: %w", serr)
		}
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		deltas[0].add(d[0])
		deltas[1].add(d[1])
		res.lap("annotate_rounds")
		if err := mine.round(cfg, mineDur/rounds); err != nil {
			return err
		}
		res.lap("mine_rounds")
	}
	res.set("setup_s", quietMedian(setups, setupSteal))
	res.set("peak_rss_mb", median(peaks))
	res.Details["setup_s_samples"] = setups
	res.Details["setup_s_steal"] = setupSteal
	res.Details["peak_rss_mb_samples"] = peaks

	pipe, err := loadPipeline(cfg.model)
	if err != nil {
		return err
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
	res.lap("annotate_checks")
	res.set("single_rps", sr.stats.rate())
	res.set("single_p50_us", sr.stats.p50()/1e3)
	res.set("single_p99_us", sr.stats.p99()/1e3)
	res.set("batch_phrases_per_s", br.stats.rate())
	res.set("batch_p50_ms", br.stats.p50()/1e6)
	res.set("batch_p99_ms", br.stats.p99()/1e6)
	res.Details["windows"] = map[string][]float64{
		"single_rps": sr.stats.rates, "single_p50_ns": sr.stats.p50s, "single_p99_ns": sr.stats.p99s, "single_steal": sr.stats.steal,
		"batch_phrases_per_s": br.stats.rates, "batch_p50_ns": br.stats.p50s, "batch_p99_ns": br.stats.p99s, "batch_steal": br.stats.steal,
	}

	matched, scored, err := mine.finish(cfg, res)
	if err != nil {
		return err
	}
	res.lap("mine_checks")
	res.set("record_match", float64(v.matched+matched)/float64(max(v.scored+scored, 1)))
	res.Details["records_scored"] = map[string]int{"http": v.scored, "mine": scored}
	res.Details["records_matched"] = map[string]int{"http": v.matched, "mine": matched}
	return nil
}

// annotateRound warms a server up (untimed), then runs one singles
// slice and one batch slice on it, adding them to sr and br, and
// returns the /readyz counter deltas of the two slices. With a tracer,
// spans are recorded during the slices.
func annotateRound(conns []*conn, probe *http.Client, base string, load *annotateLoad, sr, br *phaseResult, singleDur, batchDur time.Duration, epoch time.Time, tr *tracer) (deltas [2]counters, err error) {
	sp, bp := load.singlesPhase(base), load.batchPhase(base)
	if err = sp.sendAll(conns, load.warmSingles); err != nil {
		return
	}
	if err = bp.sendAll(conns, load.warmBatches); err != nil {
		return
	}
	if tr != nil {
		tr.instrument(&sp, load, false)
		tr.instrument(&bp, load, true)
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	var r [3]readyz
	if r[0], err = getReadyz(probe, base); err != nil {
		return
	}
	sr.merge(sp.run(conns, sr.next, singleDur, epoch))
	if r[1], err = getReadyz(probe, base); err != nil {
		return
	}
	br.merge(bp.run(conns, br.next, batchDur, epoch))
	if r[2], err = getReadyz(probe, base); err != nil {
		return
	}
	return [2]counters{readyzDelta(r[0], r[1]), readyzDelta(r[1], r[2])}, nil
}

// gateCounters applies the workload-shape gate and the resilience
// checks to the /readyz deltas of the singles and batch phases: a shed,
// degraded or breaker-tripped answer is a failure, annotate-unique
// must never hit the cache, and annotate-hot must stay in its
// heavy-tail regime.
func gateCounters(res *result, wl workload, d [2]counters) {
	var all counters
	for i, c := range d {
		if c.shed+c.degraded+c.trips > 0 {
			res.fail("%s: %d shed, %d rules-degraded, %d breaker trips", [2]string{"singles", "batch"}[i], c.shed, c.degraded, c.trips)
		}
		all.add(c)
	}
	res.Details["cache"] = map[string]int64{"hits": all.hits, "misses": all.misses, "evictions": all.evictions}
	switch {
	case wl.hot && all.hitRatio() < hotHitFloor:
		res.fail("workload shape: annotate-hot hit ratio %.4f is below %.2f", all.hitRatio(), hotHitFloor)
	case !wl.hot && all.hits != 0:
		res.fail("workload shape: annotate-unique hit the cache %d times after warm-up", all.hits)
	}
}

// mineState accumulates the mine phase over the rounds.
type mineState struct {
	setups, rates, peaks  []float64
	setupSteal, rateSteal []float64 // stolen CPU share during each run
	windows, windowSteal  []float64 // window rates and their run's steal
	ref                   []byte    // the first timed run's output
	ph                    phaseResult
}

// round mines one recipe (set-up), then times `recipemine mine -o` on
// mineRecipes recipes, once and then again while the budget still
// fits a run; every output must equal the first.
func (m *mineState) round(cfg config, budget time.Duration) error {
	stolen := startSteal()
	r, err := runMine(cfg.bin, cfg.model, cfg.work, 1, cfg.seed, mineWorkers, true)
	if err != nil {
		return err
	}
	m.setups = append(m.setups, r.wall.Seconds())
	m.setupSteal = append(m.setupSteal, stolen.share())
	t0 := time.Now()
	for last := time.Duration(0); time.Since(t0)+last <= budget || last == 0; {
		stolen := startSteal()
		r, err := runMine(cfg.bin, cfg.model, cfg.work, mineRecipes, cfg.seed, mineWorkers, true)
		if err != nil {
			return err
		}
		last = r.wall
		m.ph.sent++
		steal := stolen.share()
		m.rates = append(m.rates, r.rate)
		m.rateSteal = append(m.rateSteal, steal)
		for _, w := range r.windows {
			m.windows = append(m.windows, w)
			m.windowSteal = append(m.windowSteal, steal)
		}
		m.peaks = append(m.peaks, r.peakMB)
		switch {
		case len(r.dropped) != 0:
			m.ph.failed++
			m.ph.errs = append(m.ph.errs, fmt.Sprintf("quarantined records: %.200s", r.dropped))
		case r.rate == 0:
			m.ph.failed++
			m.ph.errs = append(m.ph.errs, "mine wrote no output while it ran")
		case m.ref == nil:
			m.ref = r.out
			m.ph.ok++
		case !bytes.Equal(r.out, m.ref):
			m.ph.failed++
			m.ph.errs = append(m.ph.errs, "output differs from the run's first mine output")
		default:
			m.ph.ok++
		}
	}
	m.ph.dur += time.Since(t0)
	return nil
}

// finish checks the mined corpus against a -workers nproc run and
// scores its records against gold, then reports the mine metrics.
func (m *mineState) finish(cfg config, res *result) (matched, scored int, err error) {
	m.ph.name = "mine"
	m.ph.stats.samples = len(m.windows)
	res.set("mine_setup_s", quietMedian(m.setups, m.setupSteal))
	res.set("mine_recipes_per_s", quietMedian(m.windows, m.windowSteal))
	res.set("mine_peak_rss_mb", median(m.peaks))
	res.Details["mine_setup_s_samples"] = m.setups
	res.Details["mine_setup_s_steal"] = m.setupSteal
	res.Details["mine_rates"] = m.rates
	res.Details["mine_steal"] = m.rateSteal
	res.Details["mine_windows"] = m.windows
	defer func() { res.addPhase(m.ph) }()
	if m.ref == nil {
		return 0, 0, nil
	}
	par, err := runMine(cfg.bin, cfg.model, cfg.work, mineRecipes, cfg.seed, cfg.conns, true)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(par.out, m.ref) {
		m.ph.failed++
		m.ph.ok--
		m.ph.errs = append(m.ph.errs, fmt.Sprintf("-workers %d output differs from the -workers %d output of the same seed", cfg.conns, mineWorkers))
	}
	matched, scored, err = scoreMined(m.ref, recipeGold(mineRecipes, cfg.seed))
	if err != nil {
		m.ph.failed++
		m.ph.ok--
		m.ph.errs = append(m.ph.errs, err.Error())
	}
	return matched, scored, nil
}

// scoreMined compares the ingredient records of mined JSONL output to
// the gold records of the same recipes.
func scoreMined(out []byte, gold [][]core.IngredientRecord) (matched, scored int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	i := 0
	for ; sc.Scan(); i++ {
		var m core.RecipeModel
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return matched, scored, fmt.Errorf("mined record %d: %w", i, err)
		}
		if i >= len(gold) || len(m.Ingredients) != len(gold[i]) {
			return matched, scored, fmt.Errorf("mined record %d does not line up with the generated recipe", i)
		}
		for j, rec := range m.Ingredients {
			if rec.Phrase != gold[i][j].Phrase {
				return matched, scored, fmt.Errorf("mined record %d ingredient %d is %q, the generated recipe has %q", i, j, rec.Phrase, gold[i][j].Phrase)
			}
			scored++
			if rec == gold[i][j] {
				matched++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return matched, scored, err
	}
	if i != len(gold) {
		return matched, scored, fmt.Errorf("mined %d records, want %d", i, len(gold))
	}
	return matched, scored, nil
}

// loadPipeline loads the bundle in-process.
func loadPipeline(path string) (*recipemodel.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return recipemodel.LoadPipeline(f)
}
