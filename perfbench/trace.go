package main

// The traced run. It replays the first of the untraced workloads'
// corpora in-process, through each layer's public functions, and times every
// call from here — the program itself carries no tracing for it. It
// reports the per-layer metrics of README.md, the reconciliation ratios
// (do the layers account for the time?) and the tracing overhead (what
// did splitting and timing the calls cost?).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/annotate"
	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/httpserver"
	"objectrunner/internal/parallel"
	"objectrunner/internal/recognize"
	"objectrunner/internal/segment"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
	"objectrunner/internal/wrapper"
)

// traceRequests is the number of extract requests the traced run sends
// over HTTP and replays in-process; traceAllocRequests of them are
// replayed once more for the allocation count.
const (
	traceRequests      = 2000
	traceAllocRequests = 200
)

func traceRun(ctx context.Context, cfg config, srcs []*source, res *result) error {
	// Part 1, untraced, over HTTP: the daemon's CPU per wrap and per
	// request, the client-side latency the net overhead is taken from,
	// and the daemon's store hit ratio.
	d, _, err := startDaemon(cfg.daemon)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	if res.Shape, err = measureShape(ctx, d); err != nil {
		return fmt.Errorf("machine shape: %w", err)
	}
	cs := newConns(d.base, runtime.NumCPU())
	defer closeConns(cs)
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return err
	}
	rs, _, err := wrapPass(ctx, cs, srcs, false)
	if err != nil {
		return err
	}
	cpu1, _ := cpuSeconds(d.pid())
	wrapped, discarded, failed := outcomes(rs)
	res.Attempted += len(rs)
	res.failures(failed, "wraps")
	if err := checkDiscards(srcs, discarded); err != nil {
		res.fail("%v", err)
	}
	res.Details["discarded"] = discarded
	res.set("daemon.cpu_s_per_wrap", (cpu1-cpu0)/float64(len(rs)))
	res.set("wrapper.discard_ratio", float64(len(discarded))/float64(len(srcs)))

	cache := make(bodyCache)
	reqs, err := requestMix(cfg.seed, "trace/"+cfg.workload, wrapped, traceRequests, cache)
	if err != nil {
		return err
	}
	// One connection: the client latency is compared with the in-process
	// handler, which serves one request at a time.
	cpu0, _ = cpuSeconds(d.pid())
	drv0, _ := cpuSeconds(0)
	t0 := time.Now()
	client := make([]float64, len(reqs))
	failedReqs := 0
	for i, r := range reqs {
		t := time.Now()
		status, _, err := cs[0].do(ctx, http.MethodPost, "/v1/extract", r.body, false)
		client[i] = usSince(t)
		res.Attempted++
		if err != nil || status != http.StatusOK {
			failedReqs++
		}
	}
	res.failures(failedReqs, "extract requests")
	wall := time.Since(t0).Seconds()
	cpu1, _ = cpuSeconds(d.pid())
	drv1, _ := cpuSeconds(0)
	res.set("daemon.cpu_ms_per_req", 1000*(cpu1-cpu0)/float64(len(reqs)))
	res.set("driver.cpu_share", (drv1-drv0)/(wall*float64(runtime.NumCPU())))
	hits, err := daemonHitRatio(ctx, cs[0])
	if err != nil {
		return err
	}
	res.set("store.hit_ratio", hits)
	closeConns(cs)
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}

	// Part 2, in-process: the wrap layers, source by source.
	spill, err := os.MkdirTemp("", "perfbench-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	svcs, obsv, err := traceWraps(ctx, srcs, wrapped, spill, res)
	if err != nil {
		return err
	}

	// Part 3, in-process: the serve layers, request by request.
	handler, err := traceServe(ctx, wrapped, reqs, svcs, obsv, spill, res)
	if err != nil {
		return err
	}
	clientP50, _ := median(client)
	res.set("net.overhead_us", clientP50-handler)
	res.Details["client_p50_us"] = clientP50
	return nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// daemonHitRatio is the daemon's wrapper-cache hit ratio over all
// sources, from GET /v1/sources.
func daemonHitRatio(ctx context.Context, c *conn) (float64, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/v1/sources", nil, true)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/sources: HTTP %d %v", status, err)
	}
	var sr apiv1.SourcesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return 0, fmt.Errorf("decode /v1/sources: %w", err)
	}
	var hits, lookups int64
	for _, s := range sr.Sources {
		hits += s.Stats.Hits
		lookups += s.Stats.Hits + s.Stats.Misses + s.Stats.DiskHits
	}
	if lookups == 0 {
		return 0, fmt.Errorf("/v1/sources: no cache lookups")
	}
	return float64(hits) / float64(lookups), nil
}

// stages is the time one staged inference spent per layer.
type stages struct {
	pageUs                                                  []float64
	clean, segment, annotate, tokenize, base, analyze, tmpl float64 // ms
	analyzeMs                                               []float64
	iterations, allocs                                      []float64
	wastedMs                                                float64
	samplePages                                             int
}

func (st *stages) total() float64 {
	return st.clean + st.segment + st.annotate + st.tokenize + st.base + st.analyze + st.tmpl
}

// traceWraps wraps every source in-process twice: once for real through
// the serving facade (the reference, whose wrapper the serve replay then
// uses), once stage by stage through the layers' public functions. The
// staged run must reproduce the real run's Report exactly — proof that
// it did the same work.
func traceWraps(ctx context.Context, srcs, wrapped []*source, spill string, res *result) (map[*source]*objectrunner.Service, *objectrunner.Observer, error) {
	isWrapped := make(map[*source]bool, len(wrapped))
	for _, s := range wrapped {
		isWrapped[s] = true
	}
	ob := objectrunner.NewObserver()
	svcs := make(map[*source]*objectrunner.Service)
	var decodeMs, registerMs, inferMs, stagedMs []float64
	var all stages
	variations, wastedMs := 0, 0.0
	for _, s := range srcs {
		t := time.Now()
		var wr apiv1.WrapRequest
		if err := json.NewDecoder(bytes.NewReader(s.wrapBody)).Decode(&wr); err != nil {
			return nil, nil, fmt.Errorf("decode wrap body of %s: %w", s.key, err)
		}
		decodeMs = append(decodeMs, msSince(t))

		t = time.Now()
		ex, err := extractorFor(s, ob)
		if err != nil {
			return nil, nil, err
		}
		registerMs = append(registerMs, msSince(t))

		svc := objectrunner.NewService(ex, objectrunner.StoreConfig{SpillDir: spill})
		t = time.Now()
		w, werr := svc.Wrapper(ctx, s.key, s.pages)
		inferMs = append(inferMs, msSince(t))
		if (werr == nil) != isWrapped[s] {
			res.fail("%s: in-process wrap (error %v) disagrees with the daemon", s.key, werr)
		}
		if werr == nil {
			svcs[s] = svc
		}

		t = time.Now()
		rep, st, err := stagedInfer(ctx, s)
		if err != nil {
			return nil, nil, err
		}
		stagedMs = append(stagedMs, msSince(t))
		if got, want := rep.String(), w.Report(); got != want {
			res.fail("%s: staged replay's report differs from the real wrap's:\n%s\nvs\n%s", s.key, got, want)
		}
		all.pageUs = append(all.pageUs, st.pageUs...)
		all.clean += st.clean
		all.segment += st.segment
		all.annotate += st.annotate
		all.tokenize += st.tokenize
		all.base += st.base
		all.analyze += st.analyze
		all.tmpl += st.tmpl
		all.analyzeMs = append(all.analyzeMs, st.analyzeMs...)
		all.iterations = append(all.iterations, st.iterations...)
		all.allocs = append(all.allocs, st.allocs...)
		all.samplePages += st.samplePages
		variations += len(rep.Variations)
		wastedMs += st.wastedMs
	}
	n := float64(len(srcs))
	res.set("httpserver.wrap_decode_ms", mean(decodeMs))
	res.set("httpserver.register_ms", mean(registerMs))
	res.set("wrapper.infer_ms", mean(inferMs))
	res.set("wrapper.variations", float64(variations)/n)
	res.set("wrapper.wasted_variation_share", wastedMs/all.analyze)
	res.set("clean.page_us", mean(all.pageUs))
	res.set("segment.select_ms", all.segment/n)
	res.set("annotate.select_ms", all.annotate/n)
	res.set("annotate.sample_pages", float64(all.samplePages)/n)
	res.set("eqclass.tokenize_ms", all.tokenize/n)
	res.set("eqclass.base_ms", all.base/n)
	res.set("eqclass.analyze_ms", mean(all.analyzeMs))
	res.set("eqclass.iterations", mean(all.iterations))
	res.set("eqclass.allocs", mean(all.allocs))
	res.set("template.build_match_ms", all.tmpl/n)
	res.set("wrap.reconcile_ratio", reconcile(inferMs, []float64{all.total()}))
	res.set("trace.wrap_overhead_ratio", sum(stagedMs)/sum(inferMs))
	res.Details["wrap_stage_ms"] = map[string]float64{
		"clean": all.clean, "segment": all.segment, "annotate": all.annotate,
		"tokenize": all.tokenize, "base": all.base, "analyze": all.analyze,
		"template": all.tmpl, "infer": sum(inferMs),
	}
	return svcs, ob, nil
}

// stagedInfer runs one source's wrapper inference stage by stage, in the
// order and with the configuration of objectrunner's WrapContext and
// wrapper.InferContext, timing each call, and rebuilds its Report.
func stagedInfer(ctx context.Context, s *source) (*wrapper.Report, *stages, error) {
	sodType, err := sod.Parse(s.sod)
	if err != nil {
		return nil, nil, err
	}
	static := make(recognize.StaticSource)
	for class, entries := range s.dicts {
		for _, e := range entries {
			conf := e.Confidence
			if conf == 0 {
				conf = 0.9
			}
			static[class] = append(static[class], recognize.Entry{Value: e.Value, Confidence: conf})
		}
	}
	recs, err := recognize.NewRegistry(static).ResolveAll(sodType)
	if err != nil {
		return nil, nil, err
	}
	cfg := wrapper.DefaultConfig()
	cfg.Normalize()
	st := &stages{pageUs: make([]float64, len(s.pages))}
	rep := &wrapper.Report{Pages: len(s.pages), Segmentation: cfg.UseSegmentation}
	abort := func(stage, reason string) (*wrapper.Report, *stages, error) {
		rep.Aborted, rep.AbortStage, rep.AbortReason = true, stage, reason
		return rep, st, nil
	}

	t := time.Now()
	pages := make([]*dom.Node, len(s.pages))
	if err := parallel.ForEachCtx(ctx, cfg.Workers, len(s.pages), func(i int) {
		t := time.Now()
		pages[i] = clean.Page(s.pages[i])
		st.pageUs[i] = usSince(t)
	}); err != nil {
		return nil, nil, err
	}
	st.clean = msSince(t)
	if len(pages) == 0 {
		return abort("infer", "no pages")
	}

	regions := pages
	if cfg.UseSegmentation {
		t = time.Now()
		regions, err = segment.SelectMainCtx(ctx, pages, cfg.Segment, nil)
		st.segment = msSince(t)
		if err != nil {
			return nil, nil, err
		}
		key := segment.KeyOf(regions[0])
		rep.BlockTag, rep.BlockPath = key.Tag, key.Path
	}

	sampleCfg := cfg.Sample
	if cap := 3 * len(regions) / 5; sampleCfg.SampleSize > cap {
		sampleCfg.SampleSize = max(cap, 4)
		sampleCfg.SampleSize = min(sampleCfg.SampleSize, len(regions))
	}
	t = time.Now()
	ann, err := annotate.SelectSampleCtx(ctx, regions, sodType, recs, nil, sampleCfg, nil)
	st.annotate = msSince(t)
	if err != nil {
		return nil, nil, err
	}
	rep.TypeOrder = ann.TypeOrder
	rep.SampleSize = len(ann.Sample)
	st.samplePages = len(ann.Sample)
	if ann.Aborted {
		return abort("annotate", ann.AbortReason)
	}
	if len(ann.Sample) == 0 {
		return abort("annotate", "empty sample")
	}
	annotatedTypes := make(map[string]bool)
	for _, e := range sodType.EntityTypes() {
		for _, pa := range ann.Sample {
			if pa.CountType(e.Name) > 0 {
				annotatedTypes[e.Name] = true
				rep.AnnotatedTypes = append(rep.AnnotatedTypes, e.Name)
				break
			}
		}
	}

	t = time.Now()
	sample := make([][]*eqclass.Occurrence, len(ann.Sample))
	locals, err := parallel.MapWorkersCtx(ctx, cfg.Workers, len(ann.Sample),
		func(ctx context.Context, _ int, c parallel.Chunk) (*symtab.Table, error) {
			lt := symtab.New()
			for i := c.Lo; i < c.Hi; i++ {
				sample[i] = eqclass.TokenizeInternPage(lt, ann.Sample[i].Page, ann.Sample[i], i)
			}
			return lt, ctx.Err()
		})
	if err != nil {
		return nil, nil, err
	}
	tab := symtab.New()
	remaps := make([][]symtab.Sym, len(locals))
	for i, lt := range locals {
		remaps[i] = tab.Merge(lt)
	}
	if _, err := parallel.MapWorkersCtx(ctx, cfg.Workers, len(sample),
		func(_ context.Context, worker int, c parallel.Chunk) (struct{}, error) {
			if !symtab.IdentityRemap(remaps[worker]) {
				for i := c.Lo; i < c.Hi; i++ {
					eqclass.RemapSyms(remaps[worker], sample[i])
				}
			}
			return struct{}{}, nil
		}); err != nil {
		return nil, nil, err
	}
	st.tokenize = msSince(t)

	t = time.Now()
	basep := cfg.EQ
	basep.Support = cfg.SupportMin
	base := eqclass.NewBase(sample, basep, nil, tab)
	st.base = msSince(t)

	type run struct {
		conflicts, matches, support int
	}
	var best *run
	better := func(a, b *run) bool {
		if b == nil {
			return true
		}
		if (a.matches > 0) != (b.matches > 0) {
			return a.matches > 0
		}
		return a.conflicts < b.conflicts
	}
	bestVar := -1
	varMs := make([]float64, 0, cfg.SupportMax-cfg.SupportMin+1)
	for support := cfg.SupportMin; support <= cfg.SupportMax; support++ {
		p := cfg.EQ
		p.Support = support
		hook := func(an *eqclass.Analysis) bool {
			return ctx.Err() == nil && template.PartialMatchPossible(sodType, an, annotatedTypes)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t = time.Now()
		an := base.Analyze(p, hook, nil)
		dt := msSince(t)
		runtime.ReadMemStats(&m1)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		st.analyze += dt
		st.analyzeMs = append(st.analyzeMs, dt)
		varMs = append(varMs, dt)
		st.iterations = append(st.iterations, float64(an.Iterations))
		st.allocs = append(st.allocs, float64(m1.Mallocs-m0.Mallocs))

		t = time.Now()
		matches := template.Build(an).MatchSOD(sodType)
		st.tmpl += msSince(t)

		r := &run{conflicts: an.Conflicts, matches: len(matches), support: support}
		v := wrapper.Variation{Support: support, Conflicts: an.Conflicts, Matches: len(matches),
			EQs: len(an.EQs), Iterations: an.Iterations}
		switch {
		case len(matches) == 0:
			v.Reason = "SOD found no complete match in the template"
		case better(r, best):
			v.Reason = "best run so far"
		default:
			v.Reason = fmt.Sprintf("no improvement over support=%d", best.support)
		}
		if better(r, best) {
			if bestVar >= 0 {
				prev := &rep.Variations[bestVar]
				prev.Accepted = false
				prev.Reason = fmt.Sprintf("superseded by support=%d", support)
			}
			best = r
			v.Accepted = true
			bestVar = len(rep.Variations)
		}
		rep.Variations = append(rep.Variations, v)
		if len(matches) > 0 && an.Conflicts == 0 {
			break
		}
	}
	for i, v := range rep.Variations {
		if !v.Accepted || best == nil || best.matches == 0 {
			st.wastedMs += varMs[i]
		}
	}
	if best == nil || best.matches == 0 {
		for i := range rep.Variations {
			rep.Variations[i].Accepted = false
		}
		return abort("match", "SOD cannot be matched against the inferred template")
	}
	rep.ChosenSupport = best.support
	rep.Conflicts = best.conflicts
	rep.Matches = best.matches
	return rep, st, nil
}

// traceServe replays the extract requests in-process: through a
// recorder-backed handler of an in-process server (the untraced
// reference), then layer by layer — decode, store lookup, stream
// extraction, the whole Service serve, flatten, encode. It returns the
// handler's median time per request.
func traceServe(ctx context.Context, wrapped []*source, reqs []request, svcs map[*source]*objectrunner.Service, ob *objectrunner.Observer, spill string, res *result) (float64, error) {
	// The in-process server registers every source from the spill the
	// reference wraps left, so it serves without inferring again.
	srv := httpserver.New(httpserver.Config{Store: objectrunner.StoreConfig{SpillDir: spill}})
	h := srv.Handler()
	for _, s := range wrapped {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(s.wrapBody)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process register of %s: HTTP %d", s.key, rec.Code)
		}
	}
	handlerUs := make([]float64, len(reqs))
	for i, r := range reqs {
		hr := httptest.NewRequest(http.MethodPost, "/v1/extract", bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, hr)
		handlerUs[i] = usSince(t)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process extract of %s: HTTP %d", r.src.key, rec.Code)
		}
	}

	// The layer replay, timed call by call, between two untimed runs of
	// the same calls: the wall-time ratio is the tracing overhead.
	t := time.Now()
	if err := replayServe(ctx, reqs, svcs, nil); err != nil {
		return 0, err
	}
	untimed := usSince(t)
	fallback0, pages0 := ob.Counter("extract.stream_fallback"), ob.Counter("extract.pages")
	var lt layerTimes
	t = time.Now()
	if err := replayServe(ctx, reqs, svcs, &lt); err != nil {
		return 0, err
	}
	timed := usSince(t)
	// Both the stream extraction and the Service serve count their
	// pages on the observer.
	fallback := ob.Counter("extract.stream_fallback") - fallback0
	served := ob.Counter("extract.pages") - pages0
	t = time.Now()
	if err := replayServe(ctx, reqs, svcs, nil); err != nil {
		return 0, err
	}
	untimed = (untimed + usSince(t)) / 2

	var allocs []float64
	for _, r := range reqs[:min(traceAllocRequests, len(reqs))] {
		w, err := svcs[r.src].Wrapper(ctx, r.src.key, r.pages)
		if err != nil {
			return 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := w.ExtractStreamBatchContext(ctx, r.pages); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}

	handler, _ := median(handlerUs)
	res.set("httpserver.handler_us", handler)
	res.set("httpserver.decode_us", mustMedian(lt.decode))
	res.set("httpserver.decode_bytes", mean(lt.decodeBytes))
	res.set("httpserver.encode_us", mustMedian(lt.encode))
	res.set("httpserver.encode_bytes", mean(lt.encodeBytes))
	res.set("service.serve_us", mustMedian(lt.serve))
	res.set("flatten_us", mustMedian(lt.flatten))
	res.set("store.get_us", mustMedian(lt.get))
	res.set("wrapper.extract_stream_us", mustMedian(lt.extract))
	res.set("wrapper.extract_stream_page_us", sum(lt.extract)/float64(lt.pages))
	res.set("wrapper.extract_allocs", mean(allocs))
	res.set("wrapper.stream_path_ratio", 1-float64(fallback)/float64(served))
	res.set("serve.reconcile_ratio", reconcile(handlerUs, lt.decode, lt.serve, lt.flatten, lt.encode))
	res.set("trace.serve_overhead_ratio", timed/untimed)
	res.Details["stream_fallback_pages"] = fallback
	res.Details["trace_requests"] = len(reqs)
	return handler, nil
}

// reconcile is the share of the whole's time that the layers' times
// account for: Σ parts ÷ Σ whole. Near 1 the layers explain the whole;
// well below 1, time goes somewhere no layer metric sees.
func reconcile(whole []float64, parts ...[]float64) float64 {
	p := 0.0
	for _, xs := range parts {
		p += sum(xs)
	}
	return p / sum(whole)
}

// layerTimes are the serve replay's per-request times, by layer.
type layerTimes struct {
	decode, decodeBytes, get, extract, serve, flatten, encode, encodeBytes []float64
	pages                                                                  int
}

// replayServe runs every request through the serve layers' public
// functions, one call per layer: decode the body, look the wrapper up,
// stream-extract, serve through the Service, flatten, encode. With lt
// set it times each call into lt; with lt nil it reads no clock at all.
func replayServe(ctx context.Context, reqs []request, svcs map[*source]*objectrunner.Service, lt *layerTimes) error {
	now := func() time.Time {
		if lt == nil {
			return time.Time{}
		}
		return time.Now()
	}
	var scratch layerTimes
	tt := lt
	if tt == nil {
		tt = &scratch
	}
	rec := func(dst *[]float64, t time.Time) {
		if lt != nil {
			*dst = append(*dst, usSince(t))
		}
	}
	for _, r := range reqs {
		svc := svcs[r.src]
		var er apiv1.ExtractRequest
		t := now()
		err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&er)
		rec(&tt.decode, t)
		if err != nil {
			return err
		}
		t = now()
		w, err := svc.Wrapper(ctx, er.Source, er.Pages)
		rec(&tt.get, t)
		if err != nil {
			return err
		}
		t = now()
		_, err = w.ExtractStreamBatchContext(ctx, er.Pages)
		rec(&tt.extract, t)
		if err != nil {
			return err
		}
		t = now()
		objs, err := svc.ServeExtract(ctx, er.Source, er.Pages)
		rec(&tt.serve, t)
		if err != nil {
			return err
		}
		t = now()
		flat := objectrunner.FlattenObjects(objs)
		rec(&tt.flatten, t)
		var buf bytes.Buffer
		t = now()
		err = json.NewEncoder(&buf).Encode(apiv1.ExtractResponse{
			Source: er.Source, Pages: len(er.Pages), Count: len(objs), Objects: flat,
		})
		rec(&tt.encode, t)
		if err != nil {
			return err
		}
		tt.decodeBytes = append(tt.decodeBytes, float64(len(r.body)))
		tt.encodeBytes = append(tt.encodeBytes, float64(buf.Len()))
		tt.pages += len(er.Pages)
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

// mustMedian is median for samples the caller has just filled.
func mustMedian(xs []float64) float64 {
	m, _ := median(xs)
	return m
}
