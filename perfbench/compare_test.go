package main

import "testing"

func TestVerdict(t *testing.T) {
	steady := []float64{99, 100, 100, 101, 100}        // spread 0.01
	noisy := []float64{70, 100, 130, 85, 115, 100, 60} // spread 0.45
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within the bound", steady, scale(steady, 1.05), "lower", "same"},
		{"slower beyond the bound", steady, scale(steady, 1.15), "lower", "REGRESSION"},
		{"fewer per second beyond the bound", steady, scale(steady, 0.85), "higher", "REGRESSION"},
		{"faster beyond the bound", steady, scale(steady, 0.85), "lower", "better"},
		// The same code measured twice on a noisy host must not read as
		// a regression, whichever side carries the noise.
		{"noisy first side", noisy, scale(steady, 1.15), "lower", "unresolved"},
		{"noisy second side", steady, scale(noisy, 1.15), "lower", "unresolved"},
		{"noisy both, medians apart", noisy, scale(noisy, 1.2), "lower", "unresolved"},
		{"noisy but disjoint", noisy, scale(steady, 1.5), "lower", "REGRESSION"},
		{"noisy but disjoint, higher better", noisy, scale(steady, 0.5), "higher", "REGRESSION"},
		{"noisy, b better", noisy, scale(steady, 0.5), "lower", "unresolved"},
		{"one run", steady[:1], steady[:1], "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict(%v, %v, %s) = %s, want %s", c.name, c.a, c.b, c.better, got, c.want)
		}
	}
}

func TestSameShapeRefusesDifferentMachines(t *testing.T) {
	two := shape{NumCPU: 2, DriverGOMAXPROCS: 2, DaemonGOMAXPROCS: 2, DaemonWorkers: 2, GoVersion: "go1.24.0"}
	a, b := &result{Shape: two}, &result{Shape: two}
	if err := sameShape([]*result{a, b}); err != nil {
		t.Errorf("same shapes refused: %v", err)
	}
	for _, mut := range []func(*shape){
		func(s *shape) { s.NumCPU = 4 },
		func(s *shape) { s.DaemonGOMAXPROCS = 1 },
		func(s *shape) { s.DaemonWorkers = 4 },
		func(s *shape) { s.DriverGOMAXPROCS = 1 },
		func(s *shape) { s.GoVersion = "go1.25.0" },
	} {
		other := two
		mut(&other)
		if err := sameShape([]*result{a, {Shape: other}}); err == nil {
			t.Errorf("shape %+v compared with %+v", other, two)
		}
	}
}
