package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/eval"
)

// outcomes splits a wrap pass into the sources wrapped (HTTP 200), the
// sources discarded (HTTP 422, an expected outcome for a source that
// does not carry the targeted data) and the failed wraps (anything
// else), each in corpus order.
func outcomes(rs []wrapResult) (wrapped []*source, discarded []string, failed int) {
	for _, r := range rs {
		switch {
		case r.err == nil && r.status == http.StatusOK:
			wrapped = append(wrapped, r.src)
		case r.err == nil && r.status == http.StatusUnprocessableEntity:
			discarded = append(discarded, r.src.key)
		default:
			failed++
		}
	}
	return wrapped, discarded, failed
}

// checkDiscards verifies a pass's discard set: it must contain every
// source sitegen generated to be discarded.
func checkDiscards(srcs []*source, got []string) error {
	in := make(map[string]bool, len(got))
	for _, k := range got {
		in[k] = true
	}
	var missing []string
	for _, s := range srcs {
		if s.expectDiscard && !in[s.key] {
			missing = append(missing, s.key)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("sources generated to be discarded were wrapped: %v", missing)
	}
	return nil
}

// extractBody is the part of an ExtractResponse the checks read: the
// objects exactly as the daemon encoded them.
type extractBody struct {
	Objects json.RawMessage `json:"objects"`
}

// recordsOf decodes a response's flattened objects into evaluation
// records: the inverse of FlattenObject (a single value is a string, a
// repeated field a list of strings, in occurrence order).
func recordsOf(body []byte) ([]eval.Record, error) {
	var resp apiv1.ExtractResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode extract response: %w", err)
	}
	out := make([]eval.Record, 0, len(resp.Objects))
	for _, o := range resp.Objects {
		rec := make(eval.Record, len(o))
		for field, v := range o {
			switch v := v.(type) {
			case string:
				rec[field] = []string{v}
			case []any:
				for _, x := range v {
					s, ok := x.(string)
					if !ok {
						return nil, fmt.Errorf("field %q: non-string value %v", field, x)
					}
					rec[field] = append(rec[field], s)
				}
			default:
				return nil, fmt.Errorf("field %q: unexpected value %v", field, v)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// quality is the paper's Pc and Pp over the corpus.
type quality struct {
	no, oc, op int
}

func (q quality) pc() float64 { return float64(q.oc) / float64(q.no) }
func (q quality) pp() float64 { return float64(q.oc+q.op) / float64(q.no) }

// qualityRun is the outcome of the quality pass.
type qualityRun struct {
	q        quality
	bodies   map[*source][][]byte // per wrapped source, per page; nil where the request failed
	ms       []float64            // latencies of the successful requests
	requests int
	failed   int
	seconds  float64
}

// qualityPass extracts every page of every wrapped source, one page per
// request, closed loop on all connections, and scores the daemon's
// objects against the golden standard with internal/eval. Discarded
// sources score as extracting nothing.
func qualityPass(ctx context.Context, cs []*conn, srcs []*source, wrapped []*source, cache bodyCache) (*qualityRun, error) {
	var reqs []request
	for _, s := range wrapped {
		rs, err := pageRequests(s, cache)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, rs...)
	}
	bodies := make([][]byte, len(reqs))
	status := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	ms := make([]float64, len(reqs))
	t0 := time.Now()
	forEachConn(cs, len(reqs), func(c *conn, i int) {
		t := time.Now()
		status[i], bodies[i], errs[i] = c.do(ctx, http.MethodPost, "/v1/extract", reqs[i].body, true)
		ms[i] = msSince(t)
	})
	qr := &qualityRun{bodies: make(map[*source][][]byte), requests: len(reqs), seconds: time.Since(t0).Seconds()}
	for i, r := range reqs {
		if errs[i] != nil || status[i] != http.StatusOK {
			qr.failed++
			bodies[i] = nil
		} else {
			qr.ms = append(qr.ms, ms[i])
		}
		qr.bodies[r.src] = append(qr.bodies[r.src], bodies[i])
	}
	for _, s := range srcs {
		extracted := make([][]eval.Record, len(s.pages))
		for p, body := range qr.bodies[s] {
			if body == nil {
				continue
			}
			recs, err := recordsOf(body)
			if err != nil {
				return nil, fmt.Errorf("%s page %d: %w", s.key, p, err)
			}
			extracted[p] = recs
		}
		res := eval.EvaluateSource(s.key, s.attrs, s.golden, extracted, eval.IdentityMapping(s.attrs))
		qr.q.no += res.No
		qr.q.oc += res.Oc
		qr.q.op += res.Op
	}
	if qr.q.no == 0 {
		return nil, errors.New("corpus has no golden objects")
	}
	return qr, nil
}

// forEachConn runs fn for indexes 0..n-1, the connections taking the next
// index as each finishes its last.
func forEachConn(cs []*conn, n int, fn func(c *conn, i int)) {
	next := make(chan int)
	done := make(chan struct{})
	for _, c := range cs {
		go func(c *conn) {
			for i := range next {
				fn(c, i)
			}
			done <- struct{}{}
		}(c)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for range cs {
		<-done
	}
}

// oracleSources picks the seeded sample of wrapped sources whose served
// responses are checked against the tree-path oracle.
func oracleSources(seed uint64, wrapped []*source, n int) []*source {
	r := &splitmix64{x: seed ^ 0x6f7261636c65}
	idx := make([]int, len(wrapped))
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher–Yates: the first n entries are the sample.
	for i := 0; i < n && i < len(idx); i++ {
		j := i + r.intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	if n > len(idx) {
		n = len(idx)
	}
	pick := append([]int(nil), idx[:n]...)
	sort.Ints(pick)
	out := make([]*source, n)
	for i, j := range pick {
		out[i] = wrapped[j]
	}
	return out
}

// oracle extracts with wrappers inferred in-process from the same pages
// the daemon was given, on the tree path (parse + clean per page), and
// compares with the daemon's streamed responses byte for byte as
// FlattenObjects JSON.
type oracle struct {
	wrappers map[*source]*objectrunner.Wrapper
}

// newOracle infers an in-process wrapper for each source, configured as
// the daemon's registration configures it.
func newOracle(ctx context.Context, srcs []*source) (*oracle, error) {
	o := &oracle{wrappers: make(map[*source]*objectrunner.Wrapper)}
	for _, s := range srcs {
		ex, err := extractorFor(s, nil)
		if err != nil {
			return nil, err
		}
		w, err := ex.WrapContext(ctx, s.pages)
		if err != nil {
			return nil, fmt.Errorf("oracle wrap of %s: %w", s.key, err)
		}
		o.wrappers[s] = w
	}
	return o, nil
}

// extractorFor builds the extractor the daemon builds on registration:
// the source's SOD and dictionaries (a zero confidence defaulting to 0.9)
// with the default pipeline configuration.
func extractorFor(s *source, ob *objectrunner.Observer) (*objectrunner.Extractor, error) {
	classes := make([]string, 0, len(s.dicts))
	for class := range s.dicts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var opts []objectrunner.Option
	for _, class := range classes {
		entries := make([]objectrunner.Entry, 0, len(s.dicts[class]))
		for _, e := range s.dicts[class] {
			conf := e.Confidence
			if conf == 0 {
				conf = 0.9
			}
			entries = append(entries, objectrunner.Entry{Value: e.Value, Confidence: conf})
		}
		opts = append(opts, objectrunner.WithDictionary(class, entries))
	}
	opts = append(opts, objectrunner.WithConfig(objectrunner.DefaultConfig()))
	if ob != nil {
		opts = append(opts, objectrunner.WithObserver(ob))
	}
	ex, err := objectrunner.New(s.sod, opts...)
	if err != nil {
		return nil, fmt.Errorf("extractor for %s: %w", s.key, err)
	}
	return ex, nil
}

// check compares one daemon response for pages of src with the oracle.
func (o *oracle) check(ctx context.Context, src *source, pages []string, body []byte) error {
	w := o.wrappers[src]
	per, err := w.ExtractBatchContext(ctx, pages)
	if err != nil {
		return fmt.Errorf("oracle extract of %s: %w", src.key, err)
	}
	var objs []*objectrunner.Object
	for _, p := range per {
		objs = append(objs, p...)
	}
	want, err := json.Marshal(objectrunner.FlattenObjects(objs))
	if err != nil {
		return err
	}
	var got extractBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response for %s: %w", src.key, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got.Objects); err != nil {
		return fmt.Errorf("response for %s: %w", src.key, err)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		return fmt.Errorf("%s: daemon objects differ from the tree-path oracle:\n daemon %.300s\n oracle %.300s",
			src.key, compact.Bytes(), want)
	}
	return nil
}
