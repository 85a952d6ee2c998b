package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
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

// rebuildGC is window expiry as State.GC did it before it worked in place —
// filter every relation into a fresh one, rebuild every index from scratch —
// kept as the reference the in-place path is checked against.
func rebuildGC(s *State, cutoffTS xmldoc.Timestamp, cutoffSeq int64) map[xmldoc.DocID]bool {
	expired := map[xmldoc.DocID]bool{}
	var kept []xmldoc.DocID
	for _, id := range s.docIDs {
		if s.RdocTS[id] < cutoffTS && s.seq[id] < cutoffSeq {
			expired[id] = true
			delete(s.RdocTS, id)
			delete(s.seq, id)
			delete(s.docs, id)
		} else {
			kept = append(kept, id)
		}
	}
	s.docIDs = kept
	for _, r := range []*relation.Relation{s.Rbin, s.Rdoc, s.Rroot} {
		r.Rows = slices.DeleteFunc(slices.Clone(r.Rows), func(t []int64) bool { return expired[xmldoc.DocID(t[0])] })
	}
	s.reindex()
	return expired
}

// TestInPlaceExpiryEqualsRebuild drives two states through the same random
// interleaving of merges and expiries — timestamps out of order behind a
// far-future first document, so most expiries are not a prefix of the arrival
// order; time, ROWS and two-dimensional cutoffs; documents that leave a
// relation empty; strings shared across documents — one expiring in place
// (State.GC), the other through rebuildGC, and requires after every step
// that relations, indexes and window bookkeeping are equal, and that GC's
// counted work adds up.
func TestInPlaceExpiryEqualsRebuild(t *testing.T) {
	noTS, noSeq := xmldoc.Timestamp(math.MaxInt64), int64(math.MaxInt64)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewState(), NewState()
		merged, droppedSum, gcs, nonPrefix := 0, 0, 0, 0
		merge := func(id int, ts int64) {
			d := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "item").Build()
			for _, s := range []*State{got, want} {
				w := NewCurrentWitness(d)
				r := rand.New(rand.NewSource(seed<<20 | int64(id)))
				for n := r.Intn(5); n > 0; n-- {
					w.AddBin(int64(r.Intn(3)), int64(r.Intn(3)), xmldoc.NodeID(r.Intn(4)), xmldoc.NodeID(r.Intn(4)))
				}
				for n := r.Intn(4); n > 0; n-- {
					w.AddDoc(xmldoc.NodeID(r.Intn(6)), fmt.Sprintf("inplace-%d", r.Intn(12)))
				}
				for n := r.Intn(3); n > 0; n-- {
					w.AddRoot(int64(r.Intn(3)), xmldoc.NodeID(r.Intn(4)))
				}
				if s == got {
					merged += w.RbinW.Len() + w.RdocW.Len() + w.RrootW.Len()
				}
				s.Merge(w, false)
			}
		}
		liveRows := func() int { return got.Rbin.Len() + got.Rdoc.Len() + got.Rroot.Len() }
		merge(1, 1_000_000) // clock-skewed head: expires by ROWS only
		now := int64(100)
		for step, id := 0, 2; step < 400; step++ {
			if rng.Intn(3) > 0 {
				now += int64(rng.Intn(3))
				merge(id, now-int64(rng.Intn(40)))
				id++
			} else {
				cutoffTS, cutoffSeq := noTS, noSeq
				switch rng.Intn(3) {
				case 0:
					cutoffTS = xmldoc.Timestamp(now - int64(rng.Intn(60)))
				case 1:
					cutoffSeq = got.nextSeq - int64(rng.Intn(30))
				default:
					cutoffTS = xmldoc.Timestamp(now - int64(rng.Intn(60)))
					cutoffSeq = got.nextSeq - int64(rng.Intn(30))
				}
				before := liveRows()
				arrival := append([]xmldoc.DocID(nil), got.docIDs...)
				expired, dropped, moved := got.GC(cutoffTS, cutoffSeq)
				wantExpired := rebuildGC(want, cutoffTS, cutoffSeq)
				if !reflect.DeepEqual(expired, wantExpired) {
					t.Fatalf("seed %d step %d: expired %v, want %v", seed, step, expired, wantExpired)
				}
				if dropped != before-liveRows() {
					t.Fatalf("seed %d step %d: %d rows dropped, relations shrank by %d", seed, step, dropped, before-liveRows())
				}
				if moved > liveRows() {
					t.Fatalf("seed %d step %d: %d rows moved with %d live: a row moved twice", seed, step, moved, liveRows())
				}
				droppedSum += dropped
				if len(expired) > 0 {
					gcs++
					// Non-prefix: some expired document arrived after one
					// that stays.
					for i, id := range arrival {
						if !expired[id] {
							for _, later := range arrival[i:] {
								if expired[later] {
									nonPrefix++
									break
								}
							}
							break
						}
					}
				}
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"Rbin", got.Rbin.Rows, want.Rbin.Rows},
				{"Rdoc", got.Rdoc.Rows, want.Rdoc.Rows},
				{"Rroot", got.Rroot.Rows, want.Rroot.Rows},
				{"indexes", stateIndexes(got), stateIndexes(want)},
				{"docIDs", got.docIDs, want.docIDs},
				{"RdocTS", got.RdocTS, want.RdocTS},
				{"seq", got.seq, want.seq},
			} {
				// A relation emptied in place is an empty slice, a rebuilt
				// one a nil slice: compare lengths first.
				if reflect.ValueOf(c.got).Len() == 0 && reflect.ValueOf(c.want).Len() == 0 {
					continue
				}
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("seed %d step %d: %s differs from the rebuild\ngot:  %v\nwant: %v", seed, step, c.what, c.got, c.want)
				}
			}
		}
		if droppedSum != merged-liveRows() {
			t.Errorf("seed %d: %d rows dropped, want %d merged - %d live", seed, droppedSum, merged, liveRows())
		}
		if gcs < 20 || nonPrefix < 10 {
			t.Errorf("seed %d: %d expiries, %d of them non-prefix: the interleaving did not exercise GC", seed, gcs, nonPrefix)
		}
	}
}
