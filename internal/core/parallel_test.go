package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// renderMatches serializes a match slice byte-for-byte (order included):
// the parallel engine promises output identical to sequential mode, not
// just the same set.
func renderMatches(ms []Match) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "q%d l%d@%d r%d@%d roots(%d,%d) t%q b%v\n",
			m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS,
			m.LeftRoot, m.RightRoot, templateSig(m.Template), m.Bindings)
	}
	return sb.String()
}

// TestParallelDeterminism drives identical generated workloads through
// Workers ∈ {1, 2, 3, 8} for both the basic and the view-materialization
// path and requires byte-identical per-document match output; the same
// workloads are then replayed through ProcessBatch at PipelineDepth
// ∈ {0, 1, 2, 8}, which must also be byte-identical to the sequential
// per-document reference.
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	leafNames := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 30; trial++ {
		deep := trial%3 == 2
		var queries []*xscl.Query
		for i := 0; i < 3+rng.Intn(10); i++ {
			window := int64(1 + rng.Intn(50))
			op := []string{"FOLLOWED BY", "JOIN"}[rng.Intn(2)]
			if deep {
				queries = append(queries, randomDeepQuery(rng, 3, window, op))
			} else {
				queries = append(queries, randomFlatQuery(rng, leafNames, 3, window, op))
			}
		}
		var docs []*xmldoc.Document
		ts := xmldoc.Timestamp(0)
		for i := 0; i < 3+rng.Intn(10); i++ {
			ts += xmldoc.Timestamp(rng.Intn(20))
			if deep {
				docs = append(docs, randomDeepDoc(rng, xmldoc.DocID(i+1), ts, 2))
			} else {
				docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
			}
		}
		for _, viewMat := range []bool{false, true} {
			var ref []string // per-document rendered output of Workers=1
			for _, workers := range []int{1, 2, 3, 8} {
				p := NewProcessor(Config{ViewMaterialization: viewMat, Workers: workers})
				for _, q := range queries {
					p.MustRegister(q)
				}
				for di, d := range docs {
					got := renderMatches(p.Process("S", d))
					if workers == 1 {
						ref = append(ref, got)
						continue
					}
					if got != ref[di] {
						t.Fatalf("trial %d (deep=%v viewmat=%v): workers=%d diverges from sequential on doc %d:\nseq:\n%spar:\n%s",
							trial, deep, viewMat, workers, di+1, ref[di], got)
					}
				}
			}
			for _, depth := range []int{0, 1, 2, 8} {
				p := NewProcessor(Config{ViewMaterialization: viewMat, PipelineDepth: depth})
				for _, q := range queries {
					p.MustRegister(q)
				}
				for di, ms := range p.ProcessBatch("S", docs) {
					if got := renderMatches(ms); got != ref[di] {
						t.Fatalf("trial %d (deep=%v viewmat=%v): pipeline depth=%d diverges from sequential on doc %d:\nseq:\n%sbatch:\n%s",
							trial, deep, viewMat, depth, di+1, ref[di], got)
					}
				}
			}
		}
	}
}

// TestParallelDeterminismWithGCAndCache runs a longer stream with small
// windows (GC active) and a tight per-shard view cache, where cache
// eviction histories differ between worker counts — match output must not.
func TestParallelDeterminismWithGCAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	leafNames := []string{"a", "b", "c"}
	var queries []*xscl.Query
	for i := 0; i < 6; i++ {
		queries = append(queries, randomFlatQuery(rng, leafNames, 2, int64(5+rng.Intn(20)), "FOLLOWED BY"))
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 200; i++ {
		ts += xmldoc.Timestamp(rng.Intn(4))
		docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
	}
	var ref []string
	for _, workers := range []int{1, 4} {
		p := NewProcessor(Config{ViewMaterialization: true, Workers: workers})
		for _, q := range queries {
			p.MustRegister(q)
		}
		for di, d := range docs {
			got := renderMatches(p.Process("S", d))
			if workers == 1 {
				ref = append(ref, got)
			} else if got != ref[di] {
				t.Fatalf("workers=%d diverges on doc %d:\nseq:\n%spar:\n%s", workers, di+1, ref[di], got)
			}
		}
	}
}

// TestShardOwnership checks the structural invariants of template sharding:
// every template is owned by exactly one shard, and carries its compiled
// programs.
func TestShardOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	p := NewProcessor(Config{Workers: 4})
	leafNames := []string{"a", "b", "c", "d"}
	for i := 0; i < 50; i++ {
		p.MustRegister(randomFlatQuery(rng, leafNames, 3, 100, "JOIN"))
	}
	if got := p.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
	owned := map[TemplateID]int{}
	for _, sh := range p.shards {
		for _, tmpl := range sh.templates {
			owned[tmpl.ID]++
			if tmpl.progs[0] == nil || tmpl.progs[1] == nil {
				t.Errorf("shard %d owns template %d but it has no compiled programs", sh.id, tmpl.ID)
			}
			if p.shardOf(tmpl) != sh {
				t.Errorf("template %d listed in shard %d but shardOf says %d", tmpl.ID, sh.id, p.shardOf(tmpl).id)
			}
		}
	}
	for _, tmpl := range p.templateList {
		if owned[tmpl.ID] != 1 {
			t.Errorf("template %d owned by %d shards, want 1", tmpl.ID, owned[tmpl.ID])
		}
	}
}

// TestStatsAggregatesShards checks Stats() merges shard-side phase stats and
// ResetStats clears them.
func TestStatsAggregatesShards(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	leafNames := []string{"a", "b"}
	p := NewProcessor(Config{ViewMaterialization: true, Workers: 3})
	for i := 0; i < 10; i++ {
		p.MustRegister(randomFlatQuery(rng, leafNames, 2, 1000, "JOIN"))
	}
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 20; i++ {
		ts += 2
		p.Process("S", randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 1))
	}
	s := p.Stats()
	if s.Documents != 20 {
		t.Errorf("Documents = %d, want 20", s.Documents)
	}
	if s.WitnessPlans+s.RTPlans == 0 {
		t.Error("no plan choices recorded across shards")
	}
	if s.CQ == 0 {
		t.Error("no CQ time recorded across shards")
	}
	if s.Stage2Wall == 0 {
		t.Error("no Stage-2 wall time recorded")
	}
	p.ResetStats()
	s = p.Stats()
	if s.Documents != 0 || s.CQ != 0 || s.WitnessPlans+s.RTPlans != 0 {
		t.Errorf("ResetStats left residue: %+v", s)
	}
}
