package main

import (
	"math"
	"testing"
)

func TestReconcile(t *testing.T) {
	whole := []float64{10, 20, 30}
	if got := reconcile(whole, []float64{5, 10, 15}, []float64{5, 10, 15}); got != 1 {
		t.Errorf("layers summing to the whole reconcile to %v, want 1", got)
	}
	if got := reconcile(whole, []float64{15, 15}); got != 0.5 {
		t.Errorf("layers covering half reconcile to %v, want 0.5", got)
	}
	if got := reconcile(nil, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("reconcile against no time = %v, want +Inf (never a silent 0)", got)
	}
}

func TestStagesTotalCoversEveryStage(t *testing.T) {
	st := stages{clean: 1, segment: 2, annotate: 4, tokenize: 8, base: 16, analyze: 32, tmpl: 64}
	if got := st.total(); got != 127 {
		t.Errorf("total = %v, want 127: a stage is missing from the wrap reconciliation", got)
	}
}
