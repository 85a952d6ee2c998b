package mmqjp

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// engineStatsKeys is the JSON contract of Engine.Stats: consumers
// (benchmark/cmd/layers, monitoring pipelines) read these keys, so adding,
// renaming or losing one is a decision, not a side effect of a field edit.
var engineStatsKeys = []string{
	"sequential", "queries", "templates", "documents", "matches",
	"xpath_ns", "witness_ns", "rvj_ns", "rl_ns", "rr_ns", "cq_ns", "maintain_ns",
	"stage1_wall_ns", "stage2_wall_ns",
	"witness_plans", "cq_probes", "cq_rows",
	"patterns_triggered", "witness_probes", "window_gcs", "gc_rows_dropped",
	"state_docs", "state_rbin_rows", "state_rdoc_rows", "state_rroot_rows", "state_values",
	"subscription_bytes", "patterns_dormant", "dropped_cascades",
}

// TestEngineStatsJSONRoundTrip pins the structured stats contract: every
// statistic survives a marshal/unmarshal cycle unchanged under exactly the
// keys in engineStatsKeys, so JSON consumers see the same numbers the
// in-process API reports.
func TestEngineStatsJSONRoundTrip(t *testing.T) {
	// Every statistic set, each to a different value: a field that
	// marshals under another key, or two that share one, shows up below.
	var in EngineStats
	v := reflect.ValueOf(&in).Elem()
	for i, f := range engineStatFields {
		x := v.FieldByIndex(f.Index)
		if x.Kind() == reflect.Bool {
			x.SetBool(true)
		} else {
			x.SetInt(int64(i + 1))
		}
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out EngineStats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the stats:\nin:  %+v\nout: %+v", in, out)
	}

	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	want := append([]string(nil), engineStatsKeys...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON keys:\n got %v\nwant %v", got, want)
	}
	if len(engineStatFields) != len(engineStatsKeys) {
		t.Fatalf("%d declared statistics for %d JSON keys", len(engineStatFields), len(engineStatsKeys))
	}

	// And a live engine's stats must round-trip identically too.
	queries, stream := rssBatchFixture(40, 20)
	eng := New(Options{})
	for _, q := range queries {
		eng.MustSubscribe(q)
	}
	publishBatch(eng, "S", stream)
	live := eng.Stats()
	b, err = json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, back) {
		t.Fatalf("live stats round trip changed:\nin:  %+v\nout: %+v", live, back)
	}
}
