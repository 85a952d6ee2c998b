package mmqjp

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestEngineStatsJSONRoundTrip pins the structured stats contract: every
// counter — including the plan counters — must survive a marshal/unmarshal
// cycle unchanged, so JSON consumers (benchmark/cmd/layers, monitoring
// pipelines) see the same numbers the in-process API reports.
func TestEngineStatsJSONRoundTrip(t *testing.T) {
	in := EngineStats{
		Queries:         7,
		Templates:       9,
		Documents:       123,
		Matches:         456,
		XPath:           1 * time.Millisecond,
		Witness:         2 * time.Millisecond,
		Rvj:             3 * time.Millisecond,
		RL:              4 * time.Millisecond,
		RR:              5 * time.Millisecond,
		CQ:              6 * time.Millisecond,
		Maintain:        7 * time.Millisecond,
		Stage1Wall:      8 * time.Millisecond,
		Stage2Wall:      9 * time.Millisecond,
		ExploreWall:     10 * time.Millisecond,
		WitnessPlans:    11,
		RTPlans:         12,
		Explorations:    13,
		DroppedCascades: 14,
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

	// Guard against two silent regressions: a field added without a JSON tag
	// (would marshal under its Go name) and duplicated tags (last writer
	// wins, dropping a counter).
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"explorations", "stage1_wall_ns", "dropped_cascades"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON rendering lacks %q: %s", key, b)
		}
	}
	rt := reflect.TypeOf(in)
	seen := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag == "" {
			t.Fatalf("EngineStats.%s has no json tag", rt.Field(i).Name)
		}
		if seen[tag] {
			t.Fatalf("duplicate json tag %q", tag)
		}
		seen[tag] = true
	}

	// And a live engine's stats must round-trip identically too.
	queries, stream := rssBatchFixture(40, 20)
	eng := New(Options{Processor: ProcessorViewMat, Parallelism: 2})
	for _, q := range queries {
		eng.MustSubscribe(q)
	}
	eng.PublishBatch("S", stream)
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
