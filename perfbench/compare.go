package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// compareMain compares two sets of untraced result records (the
// directories --results wrote them to), workload by workload: each
// side's median and quartile spread per end-to-end metric, and whether
// the second side is worse than the first by more than the metric's
// bound in BENCHMARK.json. It refuses records of different machine
// shapes: their numbers are not comparable.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare <results-dir-a> <results-dir-b>")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	c, err := loadResults(args[1])
	if err != nil {
		return err
	}
	if err := sameShape(append(append([]*result(nil), a...), c...)); err != nil {
		return err
	}
	byWorkload := func(rs []*result) map[string][]*result {
		m := make(map[string][]*result)
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wc := byWorkload(a), byWorkload(c)
	names := make([]string, 0, len(wa))
	for n := range wa {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	for _, wl := range names {
		if len(wc[wl]) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, args[1])
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl, len(wa[wl]), len(wc[wl]))
		for _, m := range sp.EndToEnd {
			va, vc := values(wa[wl], m.Name), values(wc[wl], m.Name)
			ma, err1 := median(va)
			mc, err2 := median(vc)
			if err := errors.Join(err1, err2); err != nil {
				return fmt.Errorf("%s %s: %w", wl, m.Name, err)
			}
			sa, _ := spread(va)
			sc, _ := spread(vc)
			v := verdict(va, vc, m.Better, m.Bound)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "  %-16s %12.4f (±%.3f)  %12.4f (±%.3f)  %+7.2f%%  %s\n",
				m.Name, ma, sa, mc, sc, 100*(mc-ma)/ma, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressions)
	}
	return nil
}

// verdict judges the runs of side b against those of side a. When
// either side's own quartile spread is wider than the bound, the medians
// cannot tell a change of that size from noise: the verdict is
// unresolved, unless every run of b is worse than every run of a and
// the medians differ by more than the bound. Otherwise b is a regression
// when its median is worse by more than the bound.
func verdict(a, b []float64, better string, bound float64) string {
	ma, err1 := median(a)
	mb, err2 := median(b)
	if err1 != nil || err2 != nil || ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	sa, errA := spread(a)
	sb, errB := spread(b)
	noisy := errA != nil || errB != nil || sa > bound || sb > bound
	switch {
	case noisy && worse > bound && allWorse(a, b, better):
		return "REGRESSION"
	case noisy:
		return "unresolved"
	case worse > bound:
		return "REGRESSION"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// allWorse reports whether every value of b is worse than every value
// of a.
func allWorse(a, b []float64, better string) bool {
	worstA, bestB := slices.Max(a), slices.Min(b)
	if better == "higher" {
		worstA, bestB = -slices.Min(a), -slices.Max(b)
	}
	return bestB > worstA
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// sameShape refuses a set of results measured on different machine
// shapes.
func sameShape(rs []*result) error {
	for _, r := range rs[1:] {
		if r.Shape != rs[0].Shape {
			return fmt.Errorf("machine shapes differ, results are not comparable: %s seed %d ran on %+v, %s seed %d on %+v",
				rs[0].Workload, rs[0].Seed, rs[0].Shape, r.Workload, r.Seed, r.Shape)
		}
	}
	return nil
}

// loadResults reads the untraced, correct result records of a directory.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_trace0.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run whose outputs failed the checks is not a measurement", p)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result records", dir)
	}
	return out, nil
}
