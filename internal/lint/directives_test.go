package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestParseDirectiveText(t *testing.T) {
	cases := []struct {
		text    string
		wantErr string // substring; "" = valid
	}{
		{"//mmqjp:unordered keys sorted below", ""},
		{"//mmqjp:guardedby e.mu", ""},
		{"//mmqjp:nondet seeded PRNG", ""},
		{"//mmqjp:nolock under construction", ""},
		{"//mmqjp:pooled scratch reset on Get, nothing escapes", ""},
		{"//mmqjp:pooled", "requires an argument"},
		{"//mmqjp:unknown x", "unknown directive"},
		{"//mmqjp:unordered", "requires an argument"},
		{"// not a directive", "not a //mmqjp: directive"},
	}
	for _, c := range cases {
		_, _, err := lint.ParseDirectiveText(c.text)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("ParseDirectiveText(%q): unexpected error %v", c.text, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("ParseDirectiveText(%q): want error containing %q, got nil", c.text, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("ParseDirectiveText(%q): error %v does not contain %q", c.text, err, c.wantErr)
		}
	}
}

// TestGrammarSpecs keeps the grammar table well-formed: unique names and a
// doc line for every directive (docscheck renders the table's contract).
func TestGrammarSpecs(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range lint.Grammar {
		if s.Name == "" || s.Doc == "" {
			t.Errorf("grammar entry %+v missing name or doc", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate grammar entry %q", s.Name)
		}
		seen[s.Name] = true
		if s.Arg == "" {
			t.Errorf("directive %q documents no placeholder for its argument", s.Name)
		}
	}
}

func TestCheckDirectivesFixture(t *testing.T) {
	linttest.Golden(t, nil, "testdata/src/directives", "testdata/directives.golden")
}
