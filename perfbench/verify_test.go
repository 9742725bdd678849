package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/eval"
	"objectrunner/internal/sod"
)

func TestOutcomesTreatDiscardsAsOutcomes(t *testing.T) {
	a, b, c, d := &source{key: "d/a"}, &source{key: "d/b"}, &source{key: "d/c"}, &source{key: "d/d"}
	wrapped, discarded, failed := outcomes([]wrapResult{
		{src: a, status: http.StatusOK},
		{src: b, status: http.StatusUnprocessableEntity},
		{src: c, status: http.StatusTooManyRequests},
		{src: d, err: errors.New("connection reset")},
	})
	if !reflect.DeepEqual(wrapped, []*source{a}) || !reflect.DeepEqual(discarded, []string{"d/b"}) || failed != 2 {
		t.Errorf("outcomes = %v %v %d; want [a] [d/b] 2 (a 429 and a transport error are failures, a 422 is not)",
			wrapped, discarded, failed)
	}
}

func TestCheckDiscards(t *testing.T) {
	srcs := []*source{{key: "albums/emusic", expectDiscard: true}, {key: "albums/hmv"}, {key: "cars/msn"}}
	for _, c := range []struct {
		name string
		got  []string
		ok   bool
	}{
		{"the expected discard", []string{"albums/emusic"}, true},
		{"seed-dependent extra discard", []string{"albums/emusic", "cars/msn"}, true},
		{"expected discard wrapped", []string{"cars/msn"}, false},
		{"nothing discarded", []string{}, false},
	} {
		if err := checkDiscards(srcs, c.got); (err == nil) != c.ok {
			t.Errorf("%s: checkDiscards(%v) = %v", c.name, c.got, err)
		}
	}
}

// recordsOf must invert FlattenObject exactly, or quality would be
// scored on different values than the pipeline extracted.
func TestRecordsOfInvertsFlatten(t *testing.T) {
	s, err := sod.Parse(`tuple { title: instanceOf(BookTitle), authors: set(author: instanceOf(Author))+ }`)
	if err != nil {
		t.Fatal(err)
	}
	title, set := s.Fields[0], s.Fields[1]
	author := set.Elem
	obj := &sod.Instance{Type: s, Children: []*sod.Instance{
		{Type: title, Value: "Dune"},
		{Type: set, Children: []*sod.Instance{{Type: author, Value: "F. Herbert"}, {Type: author, Value: "B. Herbert"}}},
	}}
	single := &sod.Instance{Type: s, Children: []*sod.Instance{
		{Type: title, Value: "Emma"},
		{Type: set, Children: []*sod.Instance{{Type: author, Value: "J. Austen"}}},
	}}
	objs := []*objectrunner.Object{obj, single}
	body, err := json.Marshal(apiv1.ExtractResponse{Objects: objectrunner.FlattenObjects(objs)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := recordsOf(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := eval.RecordsFromInstances(objs); !reflect.DeepEqual(got, want) {
		t.Errorf("recordsOf = %v, want %v", got, want)
	}
	if _, err := recordsOf([]byte(`{"objects":[{"title":7}]}`)); err == nil {
		t.Errorf("a non-string value was accepted")
	}
}

func TestOracleSourcesSeeded(t *testing.T) {
	var srcs []*source
	for i := 0; i < 40; i++ {
		srcs = append(srcs, &source{key: string(rune('a' + i))})
	}
	a, b := oracleSources(7, srcs, 3), oracleSources(7, srcs, 3)
	if len(a) != 3 || !reflect.DeepEqual(a, b) {
		t.Fatalf("oracleSources not deterministic: %v vs %v", a, b)
	}
	seen := map[*source]bool{}
	for _, s := range a {
		if seen[s] {
			t.Errorf("source %s sampled twice", s.key)
		}
		seen[s] = true
	}
	differs := false
	for seed := uint64(1); seed < 10 && !differs; seed++ {
		differs = !reflect.DeepEqual(oracleSources(seed, srcs, 3), a)
	}
	if !differs {
		t.Errorf("oracle sample ignores the seed")
	}
	if got := oracleSources(1, srcs[:2], 3); len(got) != 2 {
		t.Errorf("sample of 3 from 2 sources = %d sources", len(got))
	}
}

func TestRequestMixSeeded(t *testing.T) {
	src := &source{key: "d/s", pages: []string{"<p>1</p>", "<p>2</p>", "<p>3</p>", "<p>4</p>", "<p>5</p>"}}
	a, err := requestMix(3, "x", []*source{src}, 50, make(bodyCache))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := requestMix(3, "x", []*source{src}, 50, make(bodyCache))
	c, _ := requestMix(4, "x", []*source{src}, 50, make(bodyCache))
	bodies := func(rs []request) []string {
		var out []string
		for _, r := range rs {
			out = append(out, string(r.body))
			if len(r.pages) != pagesPerRequest {
				t.Errorf("request of %d pages", len(r.pages))
			}
		}
		return out
	}
	if !reflect.DeepEqual(bodies(a), bodies(b)) {
		t.Errorf("same seed, different requests")
	}
	if reflect.DeepEqual(bodies(a), bodies(c)) {
		t.Errorf("different seeds, same requests")
	}
	if _, err := requestMix(3, "x", nil, 5, make(bodyCache)); err == nil {
		t.Errorf("a mix over no sources succeeded")
	}
}

func TestPageRequestsCoverEveryPageOnce(t *testing.T) {
	src := &source{key: "d/s", pages: []string{"a", "b", "c", "d"}}
	rs, err := pageRequests(src, make(bodyCache))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rs {
		got = append(got, r.pages...)
	}
	if !reflect.DeepEqual(got, src.pages) {
		t.Errorf("pages covered %v, want %v", got, src.pages)
	}
}
