// The annotation resolver (DESIGN §13, §15). Both annotate endpoints
// answer through one function, resolve, which takes a request's
// phrases through the degradation ladder as a fixed sequence of
// stages, each run once per request:
//
//	cache lookup → rules routing → dedup → admission → CRF decode →
//	cache Put + agreement audit → rules fallback
//
// A phrase leaves the ladder at the first stage that answers it. A
// circuit breaker (internal/breaker) watches CRF-tier health:
// contained per-record panics, canary-rejected reloads, and query
// shard budget overruns feed its sliding failure window. While the
// breaker is closed the CRF tier serves every miss (optionally after
// the routing stage short-circuits high-confidence phrases to the
// rules tier behind Config.RulesRoute); when it is open, or the
// limiter is saturated, or a decode panics, the fallback stage answers
// from the deterministic gazetteer tier — 200 with degraded:true and
// tier:"rules" instead of a 429 or 500 — and half-open probes restore
// the CRF tier automatically once decodes succeed again. Only with no
// rules tier does such a miss shed the request with 429. Input-poison
// rejections (bad UTF-8, caps, empty-after-clean) are the input's
// fault, not the tier's: they answer 422 from either tier, never feed
// the breaker, and are byte-identical between tiers by construction
// (both run core.Sanitize under the same policy).
//
// Everything tier-related is opt-in: with Config.Rules nil the breaker
// is nil (always admits, never trips), the routing and fallback stages
// never run, and every annotation response is byte-identical to the
// pre-tier server — the differential contract TestTierDifferential
// pins.
package server

import (
	"context"
	"errors"
	"strconv"

	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
)

// RulesAnnotator is the fallback-tier contract (satisfied by
// rules.Tagger): annotate one raw phrase without the CRF model,
// returning the record, a confidence in [0, 1], and the same typed
// quarantine rejections as the CRF path for poison input.
type RulesAnnotator interface {
	Annotate(phrase string) (core.IngredientRecord, float64, error)
}

// tierRecord is the degraded /annotate payload: the rules-tier record
// with the degradation markers appended, so clients that only read
// the record fields parse both shapes identically.
type tierRecord struct {
	core.IngredientRecord
	Degraded bool   `json:"degraded"`
	Tier     string `json:"tier"`
}

// rung names the ladder stage that answered a slot.
type rung uint8

const (
	rungMiss   rung = iota // not answered yet
	rungCache              // cache hit, including a flight leader's re-check
	rungRouted             // healthy-mode routing to the rules tier
	rungCRF                // fresh CRF decode (shared by coalesced waiters)
	rungRules              // rules-tier fallback
)

// slot is resolve's answer for one phrase: a record, or a typed
// rejection when rej.Code is set, tagged with the rung that produced
// it.
type slot struct {
	rec  core.IngredientRecord
	rej  quarantine.Rejection
	rung rung
}

func (sl slot) rejected() bool { return sl.rej.Code != "" }

// errShed reports a request with a miss no rung could answer: the
// limiter is saturated and no rules tier is configured, so the whole
// request sheds with 429.
var errShed = errors.New("limiter saturated; uncached decode shed")

// isPanicCode classifies a rejection as a CRF-tier failure (a
// contained pipeline panic) as opposed to input poison. Only tier
// failures feed the breaker window.
func isPanicCode(code quarantine.Code) bool {
	return code == quarantine.CodeTaggerPanic || code == quarantine.CodeParserPanic
}

// flightKey scopes a coalescing key to the serving generation, so a
// reload mid-herd starts a fresh flight against the new model instead
// of handing new-generation requests an old leader's result. Flights
// key on the raw phrase (not the canonical key): identical requests —
// the thundering-herd shape — still coalesce perfectly, and sharing
// only between byte-identical phrases keeps every response, including
// error details that echo the input, byte-identical to an uncoalesced
// decode.
func flightKey(gen uint64, phrase string) string {
	return strconv.FormatUint(gen, 10) + "\x00" + phrase
}

// resolve answers phrases against the pinned serving state st, slot i
// answering phrase i. single selects the decode: a /annotate request
// coalesces with concurrent identical requests through s.flights and
// decodes with AnnotateIngredientChecked, while a batch decodes its
// distinct misses in one AnnotateIngredientsPartial call, which fans
// out over the worker pool and honors ctx. The error is errShed, or
// the context error of a decode the request deadline or the client
// cut short; the request then goes unanswered.
func (s *Server) resolve(ctx context.Context, st pipeState, phrases []string, single bool) ([]slot, error) {
	slots := make([]slot, len(phrases))
	keys := make([]string, len(phrases)) // "" for an unkeyable phrase

	// Cache lookup. An unkeyable phrase stays a miss: the decode
	// rejects it with the exact quarantine error. The cached record's
	// derived fields depend only on the canonical key, so re-echoing
	// the raw phrase makes a hit byte-identical to a decode.
	hits := 0
	for i, p := range phrases {
		key, err := core.CanonicalKey(p)
		if err != nil {
			continue
		}
		keys[i] = key
		if rec, ok := s.cache.Get(key, st.gen); ok {
			rec.Phrase = p
			slots[i] = slot{rec: rec, rung: rungCache}
			hits++
		}
	}
	// Saturation is sampled at arrival: the request's own miss
	// admission must not make its hits look degraded.
	degraded := hits > 0 && s.limiter.Saturated()

	// Rules routing, then dedup of what is left by raw phrase (a
	// 10k-phrase batch of "salt" decodes once; derived record fields
	// depend only on the canonical key, but rejection details echo the
	// input). While the breaker is closed, routing answers a miss the
	// rules tier annotates at or above the threshold without a decode —
	// a plain record that trades byte-identity for decode cost, which
	// is why it ships off by default.
	route := s.cfg.Rules != nil && s.cfg.RulesRoute && s.brk.State() == breaker.StateClosed
	var misses, missKeys []string
	seen := map[string]int{} // raw phrase → index into misses
	for i, p := range phrases {
		if slots[i].rung != rungMiss {
			continue
		}
		if route {
			if rec, conf, err := s.cfg.Rules.Annotate(p); err == nil && conf >= s.cfg.RulesThreshold {
				rec.Phrase = p
				slots[i] = slot{rec: rec, rung: rungRouted}
				s.rulesRouted.Add(1)
				continue
			}
		}
		if _, ok := seen[p]; !ok {
			seen[p] = len(misses)
			misses = append(misses, p)
			missKeys = append(missKeys, keys[i])
		}
	}

	// crf is the admission, decode, and cache Put + audit stages for the
	// distinct misses: one breaker ticket and one limiter acquisition
	// weighted by their count. A result left at rungMiss was not decoded
	// (breaker open or limiter saturated).
	crf := func() ([]slot, error) {
		out := make([]slot, len(misses))
		tk := s.brk.Acquire()
		if !tk.OK() {
			return out, nil
		}
		release, ok := s.limiter.TryAcquire(len(misses))
		if !ok {
			s.brk.Cancel(tk)
			return out, nil
		}
		defer release()
		var recs []core.IngredientRecord
		var rejs []quarantine.Rejection
		if single {
			rec, err := st.pipe.AnnotateIngredientChecked(misses[0])
			recs = []core.IngredientRecord{rec}
			if err != nil {
				rejs = []quarantine.Rejection{quarantine.Reject(0, misses[0], err)}
			}
		} else {
			var err error
			if recs, rejs, err = st.pipe.AnnotateIngredientsPartial(ctx, misses); err != nil {
				s.brk.Cancel(tk)
				return nil, err
			}
		}
		for j, rec := range recs {
			out[j] = slot{rec: rec, rung: rungCRF}
		}
		crfOK := true
		for _, rej := range rejs {
			out[rej.Index] = slot{rej: rej, rung: rungCRF}
			crfOK = crfOK && !isPanicCode(rej.Code)
		}
		s.brk.Done(tk, crfOK)
		for j, o := range out {
			if o.rejected() {
				continue
			}
			if missKeys[j] != "" {
				s.cache.Put(missKeys[j], st.gen, o.rec)
			}
			s.maybeAudit(misses[j], o.rec)
		}
		return out, nil
	}

	var out []slot
	switch {
	case len(misses) == 0:
	case single:
		// The ticket and the admission unit are leader-only: waiters
		// coalesced behind this flight share its outcome (and its
		// fallback) without consuming half-open probe slots.
		o, _, err := s.flights.Do(ctx, flightKey(st.gen, misses[0]), func() (slot, error) {
			// Re-check inside the flight: a leader that won the race
			// against a just-finished Put finds the entry here instead
			// of decoding again — what makes "one herd, one decode"
			// exact rather than probabilistic.
			if missKeys[0] != "" {
				if rec, ok := s.cache.Get(missKeys[0], st.gen); ok {
					return slot{rec: rec, rung: rungCache}, nil
				}
			}
			d, err := crf()
			if err != nil {
				return slot{}, err
			}
			return d[0], nil
		})
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if err != nil {
			// A failed flight (an injected leader fault) answers like a
			// failed decode.
			o = slot{rej: quarantine.Reject(0, misses[0], err), rung: rungCRF}
		}
		out = []slot{o}
	default:
		var err error
		if out, err = crf(); err != nil {
			return nil, err
		}
	}

	// Expand the distinct results back onto every slot; a duplicate of a
	// rejected phrase rejects at every slot it occupies, exactly as a
	// per-slot decode would. Then the rules fallback: a slot the CRF
	// tier did not answer (breaker open, limiter saturated) or answered
	// with a contained panic is answered by the rules tier, which needs
	// no admission. Without a rules tier such a slot sheds the request;
	// that happens only when nothing was decoded, so no slot has been
	// counted yet.
	for i, p := range phrases {
		if slots[i].rung != rungMiss {
			continue
		}
		o := out[seen[p]]
		if o.rung == rungMiss || s.cfg.Rules != nil && isPanicCode(o.rej.Code) {
			if s.cfg.Rules == nil {
				return nil, errShed
			}
			rec, _, err := s.cfg.Rules.Annotate(p)
			o = slot{rec: rec, rung: rungRules}
			if err != nil {
				o = slot{rej: quarantine.Reject(i, p, err), rung: rungRules}
			}
		}
		switch {
		case o.rejected():
			o.rej.Index = i
			s.quarantined.Observe(o.rej.Code)
		case o.rung == rungCRF:
			s.crfServed.Add(1)
		case o.rung == rungRules:
			s.rulesDegraded.Add(1)
		}
		o.rec.Phrase = p
		slots[i] = o
	}
	if degraded {
		s.degradedHits.Add(int64(hits))
	}
	return slots, nil
}

// maybeAudit is the agreement-audit half of resolve's Put stage: every
// Config.AgreementSample-th successful CRF decode is re-annotated by
// the rules tier and compared field for field (when the rules tier is
// confident enough to have an opinion). Disagreements are counted on
// /readyz and logged with the phrase truncated — a drifting
// disagreement rate flags either a degrading model or
// quarantine-suspect input reaching the decode path. The sample
// counter is deterministic (every Nth), not randomized, in keeping
// with the repo's no-wall-clock, no-global-rand serving discipline.
func (s *Server) maybeAudit(phrase string, rec core.IngredientRecord) {
	n := s.cfg.AgreementSample
	if n <= 0 || s.cfg.Rules == nil {
		return
	}
	if s.auditTick.Add(1)%uint64(n) != 0 {
		return
	}
	rrec, conf, err := s.cfg.Rules.Annotate(phrase)
	if err != nil || conf < s.cfg.RulesThreshold {
		return // the rules tier has no confident opinion; no signal
	}
	s.auditSampled.Add(1)
	rrec.Phrase = rec.Phrase
	if rrec != rec {
		s.auditDisagree.Add(1)
		s.logf("tier disagreement (quarantine-suspect input?) on %q: crf name=%q qty=%q unit=%q state=%q; rules name=%q qty=%q unit=%q state=%q",
			quarantine.Truncate(phrase),
			rec.Name, rec.Quantity, rec.Unit, rec.State,
			rrec.Name, rrec.Quantity, rrec.Unit, rrec.State)
	}
}

// tierStatus is the /readyz tiers block: where the ladder is standing
// and how much traffic each rung has carried.
type tierStatus struct {
	// Enabled is true when a rules tier is configured (and with it
	// the breaker).
	Enabled bool `json:"enabled"`
	// RouteEnabled mirrors Config.RulesRoute.
	RouteEnabled bool `json:"route_enabled"`
	// CRFServed counts phrases, on either endpoint, answered by a fresh
	// CRF decode (coalesced waiters and in-batch duplicates included;
	// cache hits, the in-flight re-check included, are not).
	CRFServed int64 `json:"crf_served"`
	// RulesRouted counts phrases short-circuited to the rules tier by
	// healthy-mode routing.
	RulesRouted int64 `json:"rules_routed"`
	// RulesDegradedServed counts phrases answered by the rules tier
	// because the CRF tier was open, saturated, or panicking.
	RulesDegradedServed int64 `json:"rules_degraded_served"`
	// AgreementSampled / Disagreements are the cross-tier audit
	// counters: sampled comparisons where the rules tier was
	// confident, and how many of those disagreed with the CRF record.
	AgreementSampled int64 `json:"agreement_sampled"`
	Disagreements    int64 `json:"disagreements"`
	// Breaker is the CRF-tier breaker snapshot.
	Breaker breaker.Stats `json:"breaker"`
}

// tierStatusNow assembles the /readyz tiers block.
func (s *Server) tierStatusNow() tierStatus {
	return tierStatus{
		Enabled:             s.cfg.Rules != nil,
		RouteEnabled:        s.cfg.RulesRoute,
		CRFServed:           s.crfServed.Load(),
		RulesRouted:         s.rulesRouted.Load(),
		RulesDegradedServed: s.rulesDegraded.Load(),
		AgreementSampled:    s.auditSampled.Load(),
		Disagreements:       s.auditDisagree.Load(),
		Breaker:             s.brk.Stats(),
	}
}
