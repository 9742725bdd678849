package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The schema BENCHMARK.json must keep: exactly these keys, names and
// units in their character sets, bounds within a quarter of the median,
// and the workloads perfbench actually runs. The metrics need no such
// check: perfbench reads them from BENCHMARK.json, and a run that does
// not produce exactly the declared ones fails (checkMetrics).
func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got := keys(top); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("top-level keys %s", got)
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []map[string]any
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n any) string {
		s, _ := n.(string)
		if !nameRE.MatchString(s) || seen[s] {
			t.Errorf("name %q malformed or used twice", s)
		}
		seen[s] = true
		return s
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	var wls []string
	for _, w := range b.Workloads {
		if got := keys(w); got != "name,why" {
			t.Errorf("workload keys %s", got)
		}
		wls = append(wls, name(w["name"]))
		why, _ := w["why"].(string)
		if why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %v: why %q", w["name"], why)
		}
	}
	sort.Strings(wls)
	if strings.Join(wls, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, perfbench runs %v", wls, workloadNames())
	}

	check := func(list []map[string]any, wantKeys string, withBound bool) {
		for _, m := range list {
			if got := keys(m); got != wantKeys {
				t.Errorf("metric %v keys %s, want %s", m["name"], got, wantKeys)
			}
			n := name(m["name"])
			unit, _ := m["unit"].(string)
			if !unitRE.MatchString(unit) {
				t.Errorf("metric %s unit %q", n, unit)
			}
			better, _ := m["better"].(string)
			if better != "lower" && better != "higher" {
				t.Errorf("metric %s better %q", n, better)
			}
			if withBound {
				bound, _ := m["bound"].(float64)
				if bound <= 0 || bound > 0.25 {
					t.Errorf("metric %s bound %v", n, bound)
				}
			}
		}
	}
	check(b.EndToEnd, "better,bound,name,unit", true)
	check(b.PerLayer, "better,name,unit", false)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	// setup_s is required, in seconds, lower better, with the largest bound.
	var setup map[string]any
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		if m["name"] == "setup_s" {
			setup = m
		}
		if v, _ := m["bound"].(float64); v > maxBound {
			maxBound = v
		}
	}
	if setup == nil || setup["unit"] != "s" || setup["better"] != "lower" || setup["bound"] != maxBound {
		t.Errorf("setup_s declared as %v; want unit s, lower, the largest bound %v", setup, maxBound)
	}
}

func keys[V any](m map[string]V) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestCheckMetrics(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "extract_p90_ms", Unit: "ms"}},
		PerLayer: []metricSpec{{Name: "net.overhead_us", Unit: "us"}},
	}
	for _, c := range []struct {
		name  string
		trace bool
		set   map[string]float64
		ok    bool
	}{
		{"every declared metric", false, map[string]float64{"setup_s": 0.5, "extract_p90_ms": 2}, true},
		{"traced run", true, map[string]float64{"net.overhead_us": 150}, true},
		{"one missing", false, map[string]float64{"setup_s": 0.5}, false},
		{"undeclared extra", false, map[string]float64{"setup_s": 0.5, "extract_p90_ms": 2, "ok_ratio": 1}, false},
		{"per-layer metric in an untraced run", false, map[string]float64{"setup_s": 0.5, "extract_p90_ms": 2, "net.overhead_us": 1}, false},
		{"zero", false, map[string]float64{"setup_s": 0.5, "extract_p90_ms": 0}, false},
		{"negative", true, map[string]float64{"net.overhead_us": -3}, false},
		{"NaN", false, map[string]float64{"setup_s": math.NaN(), "extract_p90_ms": 2}, false},
		{"infinite", false, map[string]float64{"setup_s": 0.5, "extract_p90_ms": math.Inf(1)}, false},
	} {
		res := newResult(sp)
		res.Trace = c.trace
		for n, v := range c.set {
			res.set(n, v)
		}
		if err := checkMetrics(res); (err == nil) != c.ok {
			t.Errorf("%s: checkMetrics = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSetTakesTheDeclaredUnit(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(sp)
	res.set("wrap_per_s", 4)
	if got := res.Metrics["wrap_per_s"].Unit; got != "1/s" {
		t.Errorf("wrap_per_s unit %q, want BENCHMARK.json's 1/s", got)
	}
}
