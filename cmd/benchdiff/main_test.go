package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func mkResult(id string, rows ...[]string) bench.Result {
	return bench.Result{
		ID:      id,
		Columns: []string{"depth", "MMQJP (docs/s)", "templates"},
		Rows:    rows,
	}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	base := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "5"})}
	cur := []bench.Result{mkResult("pipeline", []string{"1", "850.000", "5"})}
	report, regressed := diff(base, cur, 20, false)
	if regressed {
		t.Fatalf("-15%% flagged as regression:\n%s", report)
	}
	if !strings.Contains(report, "ok") {
		t.Errorf("report missing ok verdict:\n%s", report)
	}
}

func TestDiffFailsBeyondThreshold(t *testing.T) {
	base := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "5"})}
	cur := []bench.Result{mkResult("pipeline", []string{"1", "700.000", "5"})}
	report, regressed := diff(base, cur, 20, false)
	if !regressed {
		t.Fatalf("-30%% not flagged:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report missing REGRESSION verdict:\n%s", report)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	base := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "5"})}
	cur := []bench.Result{mkResult("pipeline", []string{"1", "5000.000", "5"})}
	if report, regressed := diff(base, cur, 20, false); regressed {
		t.Fatalf("improvement flagged as regression:\n%s", report)
	}
}

func TestDiffSkipsUnknownExperimentAndRow(t *testing.T) {
	base := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "5"})}
	cur := []bench.Result{
		mkResult("pipeline", []string{"1", "990.000", "5"}, []string{"2", "1500.000", "5"}),
		mkResult("brandnew", []string{"1", "1.000", "5"}),
	}
	report, regressed := diff(base, cur, 20, false)
	if regressed {
		t.Fatalf("skips caused failure:\n%s", report)
	}
	if !strings.Contains(report, "brandnew: no baseline — informational, skipped") {
		t.Errorf("missing experiment skip note:\n%s", report)
	}
	if !strings.Contains(report, "pipeline[2]: no baseline row — skipped") {
		t.Errorf("missing row skip note:\n%s", report)
	}
}

func TestDiffOneSidedSeriesInformational(t *testing.T) {
	// A series present in only one file — whichever side — must be
	// reported but can never trip the gate, even when its numbers are
	// wildly different from everything else.
	base := []bench.Result{
		mkResult("pipeline", []string{"1", "1000.000", "5"}, []string{"9", "9999.000", "5"}),
		mkResult("retired", []string{"1", "9999.000", "5"}),
	}
	cur := []bench.Result{
		mkResult("pipeline", []string{"1", "990.000", "5"}),
		mkResult("churn", []string{"0", "1.000", "5"}),
	}
	report, regressed := diff(base, cur, 20, true)
	if regressed {
		t.Fatalf("one-sided series tripped the gate:\n%s", report)
	}
	if !strings.Contains(report, "churn: no baseline — informational, skipped") {
		t.Errorf("missing current-only note:\n%s", report)
	}
	if !strings.Contains(report, "retired: baseline only, not in current — informational, skipped") {
		t.Errorf("missing baseline-only note:\n%s", report)
	}
	if !strings.Contains(report, "pipeline[9]: baseline only, not in current — informational, skipped") {
		t.Errorf("missing baseline-only row note:\n%s", report)
	}
}

func TestDiffIgnoresNonThroughputColumns(t *testing.T) {
	// The templates column shrinking is not a throughput regression.
	base := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "100"})}
	cur := []bench.Result{mkResult("pipeline", []string{"1", "1000.000", "5"})}
	if report, regressed := diff(base, cur, 20, false); regressed {
		t.Fatalf("non-throughput column compared:\n%s", report)
	}
}

func TestDiffInfoColumnsExempt(t *testing.T) {
	// A "(info)" column is throughput-shaped but opted out of the gate —
	// the scale experiment's measured multi-worker series, which is
	// scheduler noise on hosts with fewer cores than workers.
	mk := func(measured string) []bench.Result {
		return []bench.Result{{
			ID:      "scale",
			Columns: []string{"workers", "measured (docs/s) (info)", "serial (docs/s)"},
			Rows:    [][]string{{"4", measured, "-"}},
		}}
	}
	if report, regressed := diff(mk("1000.000"), mk("100.000"), 20, false); regressed {
		t.Fatalf("(info) column compared:\n%s", report)
	}
}

func mkAllocs(rows ...[]string) bench.Result {
	return bench.Result{
		ID:      "allocs",
		Columns: []string{"series", "allocs/op", "B/op (info)", "ns/op (info)"},
		Rows:    rows,
	}
}

func TestDiffAllocsLowerIsBetter(t *testing.T) {
	base := []bench.Result{mkAllocs([]string{"rss per-document", "100.0", "4096.0", "50000.0"})}
	worse := []bench.Result{mkAllocs([]string{"rss per-document", "150.0", "4096.0", "50000.0"})}
	report, regressed := diff(base, worse, 20, true)
	if !regressed {
		t.Fatalf("+50%% allocs/op not flagged:\n%s", report)
	}
	if !strings.Contains(report, "allocs[rss per-document] allocs/op") || !strings.Contains(report, "REGRESSION") {
		t.Errorf("wrong series flagged:\n%s", report)
	}
	better := []bench.Result{mkAllocs([]string{"rss per-document", "40.0", "4096.0", "50000.0"})}
	if report, regressed := diff(base, better, 20, true); regressed {
		t.Fatalf("-60%% allocs/op (an improvement) flagged:\n%s", report)
	}
}

func TestDiffAllocsNotSpeedNormalized(t *testing.T) {
	// A machine twice as slow halves every throughput series; the allocs
	// counts are machine-independent and must neither be rescaled by the
	// factor nor contribute to it.
	base := []bench.Result{
		mkResult("pipeline", []string{"1", "1000.000", "5"}, []string{"2", "2000.000", "5"}, []string{"4", "3000.000", "5"}),
		mkAllocs([]string{"rss per-document", "100.0", "1.0", "1.0"}),
	}
	cur := []bench.Result{
		mkResult("pipeline", []string{"1", "500.000", "5"}, []string{"2", "1000.000", "5"}, []string{"4", "1500.000", "5"}),
		mkAllocs([]string{"rss per-document", "100.0", "1.0", "1.0"}),
	}
	report, regressed := diff(base, cur, 20, true)
	if regressed {
		t.Fatalf("unchanged allocs or machine-speed throughput difference flagged:\n%s", report)
	}
	if !strings.Contains(report, "median speed ratio 0.500") {
		t.Errorf("allocs cells perturbed the speed factor:\n%s", report)
	}
}

func TestDiffGuardsZeroAndNaNSeries(t *testing.T) {
	// Zero and non-finite baseline cells must become "(info)" notes, not a
	// division by zero that silently passes (NaN compares false) or fails.
	base := []bench.Result{
		mkAllocs(
			[]string{"pooled-stage", "0.0", "0.0", "1.0"},
			[]string{"nan-stage", "NaN", "1.0", "1.0"},
		),
		mkResult("pipeline", []string{"1", "0.000", "5"}),
	}
	cur := []bench.Result{
		mkAllocs(
			[]string{"pooled-stage", "50.0", "0.0", "1.0"},
			[]string{"nan-stage", "10.0", "1.0", "1.0"},
		),
		mkResult("pipeline", []string{"1", "900.000", "5"}),
	}
	report, regressed := diff(base, cur, 20, true)
	if regressed {
		t.Fatalf("guarded series tripped the gate:\n%s", report)
	}
	if !strings.Contains(report, "allocs[pooled-stage] allocs/op: zero-alloc baseline — (info) skipped") {
		t.Errorf("missing zero-alloc note:\n%s", report)
	}
	if !strings.Contains(report, "allocs[nan-stage] allocs/op: non-finite cell — (info) skipped") {
		t.Errorf("missing non-finite note:\n%s", report)
	}
	if !strings.Contains(report, "pipeline[1] MMQJP (docs/s): zero baseline throughput — (info) skipped") {
		t.Errorf("missing zero-throughput note:\n%s", report)
	}
}

func TestDiffNormalizesMachineSpeed(t *testing.T) {
	// The gate machine is uniformly half the speed of the baseline
	// machine: raw comparison fails, normalized comparison passes.
	base := []bench.Result{mkResult("pipeline",
		[]string{"1", "1000.000", "5"},
		[]string{"2", "2000.000", "5"},
		[]string{"4", "3000.000", "5"},
	)}
	cur := []bench.Result{mkResult("pipeline",
		[]string{"1", "500.000", "5"},
		[]string{"2", "1000.000", "5"},
		[]string{"4", "1500.000", "5"},
	)}
	if report, regressed := diff(base, cur, 20, false); !regressed {
		t.Fatalf("raw comparison missed a uniform halving:\n%s", report)
	}
	if report, regressed := diff(base, cur, 20, true); regressed {
		t.Fatalf("normalized comparison flagged a pure machine-speed difference:\n%s", report)
	}
}

func TestDiffNormalizedCatchesLocalizedRegression(t *testing.T) {
	// Same machine speed overall (median ratio 1.0), but one series lost
	// 70%: the normalized gate must still flag it.
	base := []bench.Result{mkResult("pipeline",
		[]string{"1", "1000.000", "5"},
		[]string{"2", "1000.000", "5"},
		[]string{"4", "1000.000", "5"},
	)}
	cur := []bench.Result{mkResult("pipeline",
		[]string{"1", "1000.000", "5"},
		[]string{"2", "1000.000", "5"},
		[]string{"4", "300.000", "5"},
	)}
	report, regressed := diff(base, cur, 20, true)
	if !regressed {
		t.Fatalf("normalized comparison missed a localized regression:\n%s", report)
	}
	if !strings.Contains(report, "pipeline[4] MMQJP (docs/s)") || !strings.Contains(report, "REGRESSION") {
		t.Errorf("wrong series flagged:\n%s", report)
	}
}
