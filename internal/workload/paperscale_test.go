package workload

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestPaperScaleTemplateFloor pins the workload property its users
// (internal/core's paper-scale allocation ceiling) depend on: the
// generator's wiring sampling produces 50+ live canonical templates (the
// earlier identity-wiring generators collapse to
// ~one template per join count), and instances spread over multiple RT
// vector groups per template.
func TestPaperScaleTemplateFloor(t *testing.T) {
	gen := DefaultPaperScale()
	rng := rand.New(rand.NewSource(1))
	p := core.NewProcessor(core.Config{})
	for _, q := range gen.Queries(rng, 3000) {
		p.MustRegister(q)
	}
	if n := p.NumTemplates(); n < 50 {
		t.Fatalf("3000 paper-scale queries produced %d templates, want >= 50", n)
	}
	multi := 0
	for _, ts := range p.PlanStats() {
		if ts.VecGroups > 1 {
			multi++
		}
	}
	if multi < 10 {
		t.Fatalf("only %d templates have more than one vector group", multi)
	}
}
