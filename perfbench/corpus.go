package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/eval"
	"objectrunner/internal/sitegen"
)

// pagesPerSource is the sitegen page count per source (before the junk
// pages sitegen interleaves), as in the paper's evaluation setup.
const pagesPerSource = 30

// pagesPerRequest is the page count of every extract request.
const pagesPerRequest = 3

// corpora is the number of corpora a run measures. One seed's corpus
// differs from another's in every source's layout details (attribute
// order, labels, page chrome), and that alone moves the daemon's CPU
// time per wrap by up to 45% between seeds on the same machine; a run
// that measures several corpora averages it over them.
const corpora = 3

// source is one corpus source as the daemon sees it — a registration
// body and page windows — plus what only perfbench knows: the golden
// standard and whether sitegen built it to be discarded.
type source struct {
	key           string
	domain        string
	sod           string
	attrs         []eval.AttrSpec
	dicts         map[string][]apiv1.Entry
	pages         []string
	golden        [][]eval.Object
	expectDiscard bool
	wrapBody      []byte
}

var instanceOfRE = regexp.MustCompile(`instanceOf\(([A-Za-z0-9_]+)\)`)

// genCorpora generates a run's corpora: corpus i is sitegen's corpus for
// seed·corpora + i, so that no two runs' seeds share one, and its source
// keys carry the prefix "c<i>/", so that the daemon holds the corpora
// side by side.
func genCorpora(seed uint64) ([][]*source, error) {
	out := make([][]*source, corpora)
	for i := range out {
		c, err := genCorpus(seed*corpora+uint64(i), fmt.Sprintf("c%d/", i))
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// genCorpus generates the five-domain sitegen corpus for a seed, in
// sitegen's fixed domain and source order, with each source's wrap body
// encoded once and its key prefixed with prefix. Dictionaries come from
// the generated knowledge base, one per instanceOf class of the domain's
// SOD.
func genCorpus(seed uint64, prefix string) ([]*source, error) {
	cfg := sitegen.DefaultConfig()
	cfg.Seed = seed
	cfg.PagesPerSource = pagesPerSource
	b, err := sitegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var out []*source
	for _, dd := range b.Domains {
		dicts := make(map[string][]apiv1.Entry)
		for _, m := range instanceOfRE.FindAllStringSubmatch(dd.Spec.SODText, -1) {
			class := m[1]
			if _, ok := dicts[class]; ok {
				continue
			}
			for _, e := range b.KB.Instances(class) {
				dicts[class] = append(dicts[class], apiv1.Entry{Value: e.Value, Confidence: e.Confidence})
			}
		}
		for _, s := range dd.Sources {
			src := &source{
				key:           prefix + dd.Spec.Name + "/" + sourceSlug(s.Spec.Name),
				domain:        dd.Spec.Name,
				sod:           dd.Spec.SODText,
				attrs:         dd.Spec.Attrs,
				dicts:         dicts,
				pages:         s.HTML,
				golden:        s.Golden,
				expectDiscard: s.Spec.ExpectDiscard,
			}
			src.wrapBody, err = json.Marshal(apiv1.WrapRequest{
				Source: src.key, SOD: src.sod, Pages: src.pages, Dictionaries: src.dicts,
			})
			if err != nil {
				return nil, fmt.Errorf("encode wrap body of %s: %w", src.key, err)
			}
			out = append(out, src)
		}
	}
	return out, nil
}

// sourceSlug turns a sitegen source name ("zvents (detail)") into a
// path-safe key segment ("zvents_detail").
func sourceSlug(name string) string {
	return strings.NewReplacer(" ", "_", "(", "", ")", "", ".", "_", "/", "_").Replace(name)
}

// windowCount is the number of pagesPerRequest-page windows of the
// source.
func (s *source) windowCount() int {
	if n := len(s.pages) - pagesPerRequest + 1; n > 0 {
		return n
	}
	return 1
}

// request is one extract request: a source and a page window, with the
// body that carries them.
type request struct {
	src   *source
	pages []string
	body  []byte
}

type windowKey struct {
	src      *source
	start, n int
}

// bodyCache encodes each extract body once, so the load loops spend no
// CPU of their own on JSON while they measure.
type bodyCache map[windowKey][]byte

// request returns the extract request for the n pages of src from start.
func (c bodyCache) request(src *source, start, n int) (request, error) {
	end := start + n
	if end > len(src.pages) {
		end = len(src.pages)
	}
	pages := src.pages[start:end]
	k := windowKey{src, start, n}
	body, ok := c[k]
	if !ok {
		var err error
		body, err = json.Marshal(apiv1.ExtractRequest{Source: src.key, Pages: pages})
		if err != nil {
			return request{}, fmt.Errorf("encode extract body of %s: %w", src.key, err)
		}
		c[k] = body
	}
	return request{src: src, pages: pages, body: body}, nil
}

// splitmix64 is perfbench's own seeded generator: the request mix must
// depend only on --seed, never on the Go release's math/rand streams.
type splitmix64 struct{ x uint64 }

func (r *splitmix64) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// requestMix draws n extract requests over the given sources: a uniform
// source, then a uniform window of pagesPerRequest consecutive pages.
func requestMix(seed uint64, salt string, srcs []*source, n int, cache bodyCache) ([]request, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no wrapped sources to extract from")
	}
	r := &splitmix64{x: seed}
	for _, c := range salt {
		r.x = r.x*31 + uint64(c)
	}
	out := make([]request, n)
	for i := range out {
		src := srcs[r.intn(len(srcs))]
		req, err := cache.request(src, r.intn(src.windowCount()), pagesPerRequest)
		if err != nil {
			return nil, err
		}
		out[i] = req
	}
	return out, nil
}

// pageRequests returns one single-page request per page of the source,
// in page order: the quality pass, which must score objects per page.
func pageRequests(src *source, cache bodyCache) ([]request, error) {
	var out []request
	for start := range src.pages {
		req, err := cache.request(src, start, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}
