package main

import (
	"strings"
	"testing"
)

// ev builds one test2json output event line.
func ev(output string) string {
	// Keep it literal: the parser must survive real-world escaping, so
	// craft the JSON by hand only for well-formed events.
	b := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\t", `\t`, "\n", `\n`).Replace(output)
	return `{"Action":"output","Package":"objectrunner","Output":"` + b + `"}`
}

func TestParseStreamStitchedResult(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkServeCache/cache_hit-8 \t\n"),
		ev("    1000\t     35476 ns/op\t    2088 B/op\t      63 allocs/op\n"),
	}, "\n")
	got, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkServeCache/cache_hit"]
	if !ok {
		t.Fatalf("benchmark not parsed: %v", got)
	}
	if r.ns != 35476 || !r.hasAllocs || r.allocs != 63 {
		t.Fatalf("result = %+v", r)
	}
}

func TestParseStreamMinAcrossRepeats(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkX-8   100\t 200 ns/op\t 10 allocs/op\n"),
		ev("BenchmarkX-8   100\t 150 ns/op\t 12 allocs/op\n"),
		ev("BenchmarkX-8   100\t 180 ns/op\t  9 allocs/op\n"),
	}, "\n")
	got, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkX"]
	if r.ns != 150 || r.allocs != 9 {
		t.Fatalf("min not kept per measure: %+v", r)
	}
}

// TestParseStreamRecordsProcs: the -N suffix is split off the name and
// kept as the GOMAXPROCS the result ran at; no suffix means 1.
func TestParseStreamRecordsProcs(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkServeCache/cache_hit-2 \t\n"),
		ev("    1000\t     35476 ns/op\t    2088 B/op\t      63 allocs/op\n"),
		ev("BenchmarkX   100\t 200 ns/op\t 10 allocs/op\n"),
	}, "\n")
	got, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	if p := got["BenchmarkServeCache/cache_hit"].procs; p != 2 {
		t.Errorf("cache_hit procs = %d, want 2", p)
	}
	if p := got["BenchmarkX"].procs; p != 1 {
		t.Errorf("BenchmarkX procs = %d, want 1", p)
	}
}

// TestParseStreamRefusesMixedProcs: one benchmark at two GOMAXPROCS
// values in one record (-cpu=1,2) has no single minimum to gate on.
func TestParseStreamRefusesMixedProcs(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkX   100\t 200 ns/op\t 10 allocs/op\n"),
		ev("BenchmarkX-2   100\t 150 ns/op\t 12 allocs/op\n"),
	}, "\n")
	if got, err := parseStream(strings.NewReader(stream), "t"); err == nil {
		t.Fatalf("mixed GOMAXPROCS accepted: %v", got)
	}
}

// TestCompareRefusesOtherProcs: a fresh result at another GOMAXPROCS than
// its baseline fails the gate even when its numbers would pass.
func TestCompareRefusesOtherProcs(t *testing.T) {
	base := map[string]result{"BenchmarkHit": {procs: 1, ns: 100, allocs: 60, hasAllocs: true}}
	fresh := map[string]result{"BenchmarkHit": {procs: 2, ns: 90, allocs: 60, hasAllocs: true}}
	var sb strings.Builder
	if !comparePair(&sb, "b", "f", base, fresh, 0.2, 0) {
		t.Fatalf("GOMAXPROCS mismatch compared anyway\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "GOMAXPROCS") {
		t.Errorf("verdict does not name the mismatch:\n%s", sb.String())
	}
}

// TestParseStreamMalformed drives the parser through broken streams: it
// must either recover the parseable results or reject the stream with an
// error — never report an empty result set as success.
func TestParseStreamMalformed(t *testing.T) {
	cases := []struct {
		name      string
		stream    string
		wantErr   bool
		wantNames []string
	}{
		{
			name:    "empty_stream",
			stream:  "",
			wantErr: true,
		},
		{
			name:    "missing_pass_event_results_still_parse",
			stream:  ev("BenchmarkY-8   50\t 300 ns/op\n"), // no run/pass events at all
			wantErr: false, wantNames: []string{"BenchmarkY"},
		},
		{
			name: "truncated_test2json_line",
			stream: strings.Join([]string{
				ev("BenchmarkA-8   10\t 100 ns/op\n"),
				`{"Action":"output","Output":"BenchmarkB-8   10\t 999 ns/`, // cut mid-event
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkA"},
		},
		{
			name: "non_json_garbage_between_events",
			stream: strings.Join([]string{
				"make[1]: Entering directory '/repo'",
				ev("BenchmarkA-8   10\t 100 ns/op\n"),
				"<<<some binary junk\x01\x02>>>",
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkA"},
		},
		{
			name: "plain_bench_output_not_json",
			stream: strings.Join([]string{
				"goos: linux",
				"BenchmarkPlain-8   \t 100\t 123 ns/op\t 1 B/op\t 2 allocs/op",
				"PASS",
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkPlain"},
		},
		{
			name: "name_event_without_result",
			stream: strings.Join([]string{
				ev("BenchmarkOrphan-8 \t\n"),
				ev("--- FAIL: something\n"),
			}, "\n"),
			wantErr: true, // nothing parseable: the orphan name never got numbers
		},
		{
			name:      "result_without_name_uses_test_attribution",
			stream:    `{"Action":"output","Test":"BenchmarkAttributed","Output":"    10\t 42 ns/op\n"}`,
			wantErr:   false,
			wantNames: []string{"BenchmarkAttributed"},
		},
		{
			name:    "only_non_output_events",
			stream:  `{"Action":"run","Test":"BenchmarkZ"}` + "\n" + `{"Action":"pass","Test":"BenchmarkZ"}`,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseStream(strings.NewReader(tc.stream), tc.name)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.wantNames) {
				t.Fatalf("parsed %v, want names %v", got, tc.wantNames)
			}
			for _, n := range tc.wantNames {
				if _, ok := got[n]; !ok {
					t.Errorf("missing %s in %v", n, got)
				}
			}
		})
	}
}

// TestCompareAllocGate exercises the allocs/op gate: regression past the
// tolerance fails, a fresh run missing allocs where the baseline has
// them fails, and a benchmark absent from the baseline never fails.
func TestCompareAllocGate(t *testing.T) {
	base := map[string]result{
		"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true},
	}
	cases := []struct {
		name      string
		fresh     map[string]result
		tol, aTol float64
		wantFail  bool
	}{
		{"identical", map[string]result{"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true}}, 0.2, 0, false},
		{"alloc_regression_strict", map[string]result{"BenchmarkHit": {ns: 100, allocs: 61, hasAllocs: true}}, 0.2, 0, true},
		{"alloc_within_tolerance", map[string]result{"BenchmarkHit": {ns: 100, allocs: 65, hasAllocs: true}}, 0.2, 0.10, false},
		{"alloc_past_tolerance", map[string]result{"BenchmarkHit": {ns: 100, allocs: 70, hasAllocs: true}}, 0.2, 0.10, true},
		{"fresh_missing_allocs", map[string]result{"BenchmarkHit": {ns: 100}}, 0.2, 0, true},
		{"ns_regression", map[string]result{"BenchmarkHit": {ns: 130, allocs: 60, hasAllocs: true}}, 0.2, 0, true},
		{"bench_vanished", map[string]result{"BenchmarkOther": {ns: 1}}, 0.2, 0, true},
		{"new_bench_in_fresh_ok", map[string]result{
			"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true},
			"BenchmarkNew": {ns: 5, allocs: 1000, hasAllocs: true},
		}, 0.2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			failed := comparePair(&sb, "base.json", "fresh.json", base, tc.fresh, tc.tol, tc.aTol)
			if failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v\n%s", failed, tc.wantFail, sb.String())
			}
		})
	}
}

// TestCompareNoAllocsInBaseline keeps pre-benchmem baselines usable: a
// baseline without allocs/op must not gate the fresh run's allocations.
func TestCompareNoAllocsInBaseline(t *testing.T) {
	base := map[string]result{"BenchmarkOld": {ns: 100}}
	fresh := map[string]result{"BenchmarkOld": {ns: 100, allocs: 1e9, hasAllocs: true}}
	var sb strings.Builder
	if comparePair(&sb, "b", "f", base, fresh, 0.2, 0) {
		t.Fatalf("alloc gate fired without baseline allocs\n%s", sb.String())
	}
}
