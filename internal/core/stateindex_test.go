package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// stateIndexes copies the state's indexes into one comparable value.
func stateIndexes(s *State) map[string]any {
	return map[string]any{
		"rdocBySym":   s.rdocBySym,
		"rbinByNode2": s.rbinByNode2,
		"rrootByNode": s.rrootByNode,
	}
}

// TestStateIndexesEqualRebuilt streams a windowed workload with single-node
// and multi-node sides (so Rbin, Rdoc and Rroot all fill, and window GC runs
// repeatedly) and requires, after every document, that the indexes Merge
// extended incrementally and GC shrank are exactly what a rebuild from the
// relations yields; then that a processor restored from the snapshot — after
// its JSON round trip, the unchanged snapshot format — holds the same
// relations and the same indexes as the one that never stopped.
func TestStateIndexesEqualRebuilt(t *testing.T) {
	gen := workload.DefaultRandomFlat()
	gen.MaxWindow = 12
	rng := rand.New(rand.NewSource(5))
	var queries []*xscl.Query
	for i := 0; i < 15; i++ {
		queries = append(queries, gen.Query(rng))
	}
	register := func() *Processor {
		p := NewProcessor(Config{ViewMaterialization: true})
		for _, q := range queries {
			p.MustRegister(q)
		}
		return p
	}
	live := register()
	gcs := 0
	for i := 1; i <= 120; i++ {
		before := live.state.NumDocs()
		live.Process("S", gen.Document(rng, xmldoc.DocID(i), xmldoc.Timestamp(i)))
		if live.state.NumDocs() <= before {
			gcs++
		}
		got := stateIndexes(live.state)
		fresh := *live.state
		fresh.reindex()
		if want := stateIndexes(&fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("after document %d: maintained indexes differ from a rebuild\ngot:  %v\nwant: %v", i, got, want)
		}
	}
	if gcs == 0 || live.state.Rroot.Len() == 0 || live.state.Rbin.Len() == 0 {
		t.Fatalf("stream did not exercise the state: %d GCs, %d Rroot rows, %d Rbin rows",
			gcs, live.state.Rroot.Len(), live.state.Rbin.Len())
	}

	raw, err := json.Marshal(live.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var snap StateSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored := register()
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.state.Rbin.Rows, live.state.Rbin.Rows) ||
		!reflect.DeepEqual(restored.state.Rdoc.Rows, live.state.Rdoc.Rows) ||
		!reflect.DeepEqual(restored.state.Rroot.Rows, live.state.Rroot.Rows) {
		t.Fatal("restored relations differ from the live ones")
	}
	if got, want := stateIndexes(restored.state), stateIndexes(live.state); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored indexes differ from the live ones\ngot:  %v\nwant: %v", got, want)
	}
}
