package bench

import (
	"strings"
	"testing"
)

// Smoke-test every experiment at tiny scale: they must run, produce the
// declared columns, and obey basic sanity properties.
func smokeOptions() Options {
	return Options{
		Seed:        1,
		QueryCounts: []int{10, 100},
		Queries:     100,
		BigQueries:  2000,
		RSSItems:    300,
		SeqRSSItems: 300,
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	for _, id := range All() {
		res, err := Run(id, smokeOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id {
			t.Errorf("%s: result id %q", id, res.ID)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Errorf("%s: row arity %d vs %d columns", id, len(row), len(res.Columns))
			}
		}
		if !strings.Contains(res.String(), id) {
			t.Errorf("%s: String() missing id", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", smokeOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable3FlatColumnExact(t *testing.T) {
	res := Table3(smokeOptions())
	want := []string{"1", "3", "6", "16"}
	for i, row := range res.Rows {
		if row[1] != want[i] {
			t.Errorf("flat templates for %s VJ = %s, want %s", row[0], row[1], want[i])
		}
	}
}
