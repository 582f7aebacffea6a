package powerapi

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"fluxpower/internal/query"
)

// queryCacheID is the pseudo-job id under which /v1/query answers are
// cached. Query entries expire by TTL alone — a fleet aggregate has no
// single owning job whose finish event could invalidate it.
const queryCacheID = ^uint64(0) - 1

// handleQuery serves GET /v1/query?expr=...&start=...&end=...: parse
// the expression locally (hostile input never reaches the broker),
// canonicalize it, and evaluate through the pushdown engine.
//
// The cache key is the canonical AST rendering plus the window, so
// whitespace, clause-order, matcher-order, and duration-unit variants
// of one query coalesce onto a single cache entry and — via the flight
// group — a single upstream tree reduction. X-Source reports the
// storage tiers the answer was actually read from; X-Complete false
// means a subtree was unreachable or a tier had lost part of the
// window, and the short partial TTL lets a recovered subtree show
// through quickly.
func (gw *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	expr := q.Get("expr")
	if expr == "" {
		gw.badRequest(w, "expr parameter is required")
		return
	}
	e, err := query.Parse(expr)
	if err != nil {
		gw.badRequest(w, "%v", err)
		return
	}
	start, end, err := windowParams(q)
	if err != nil {
		gw.badRequest(w, "%v", err)
		return
	}
	canonical := e.String()
	key := "query:" + canonical +
		":" + strconv.FormatFloat(start, 'g', -1, 64) +
		":" + strconv.FormatFloat(end, 'g', -1, 64)
	v, err := gw.cachedFetch(r.Context(), key, queryCacheID, func(ctx context.Context) (fetched, error) {
		res, err := gw.qc.EvalContext(ctx, canonical, start, end)
		if err != nil {
			return fetched{}, err
		}
		val, err := jsonBody(res, res.Complete)
		if err != nil {
			return fetched{}, err
		}
		val.source = strings.Join(res.Sources, ",")
		// A fixed historical window with a complete answer is
		// immutable; an open window ("now") or a partial answer decays
		// on the running-job schedule.
		return fetched{val: val, ttl: gw.jobTTL(end, res.Complete)}, nil
	})
	if err != nil {
		gw.fail(w, err)
		return
	}
	gw.writeCached(w, v)
}

// windowParams parses a window's optional start and end parameters;
// an absent one is 0. ParseFloat accepts NaN and ±Inf, and NaN compares
// false everywhere — it would slip past every comparison-based guard
// downstream and fail only at JSON encoding — so only finite numbers
// pass.
func windowParams(q url.Values) (start, end float64, err error) {
	for _, p := range [...]struct {
		name string
		v    *float64
	}{{"start", &start}, {"end", &end}} {
		if s := q.Get(p.name); s != "" {
			*p.v, err = strconv.ParseFloat(s, 64)
			if err != nil || !query.IsFinite(*p.v) {
				return 0, 0, fmt.Errorf("%s %q is not a finite number", p.name, s)
			}
		}
	}
	return start, end, nil
}
