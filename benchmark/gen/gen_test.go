package gen

import (
	"reflect"
	"strings"
	"testing"
)

func TestBuildIsDeterministicPerSeed(t *testing.T) {
	for _, s := range Specs {
		s.Subs = 300
		a, b := s.Build(7, 120), s.Build(7, 120)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 built two different scripts", s.Name)
		}
		c := s.Build(8, 120)
		if reflect.DeepEqual(a.Docs, c.Docs) {
			t.Errorf("%s: seeds 7 and 8 gave the same documents", s.Name)
		}
		if !reflect.DeepEqual(a.Subs, c.Subs) {
			t.Errorf("%s: the standing subscriptions depend on the seed", s.Name)
		}
		if s.Name == "rss_churn" && reflect.DeepEqual(a.Churn, c.Churn) {
			t.Errorf("%s: seeds 7 and 8 gave the same fresh subscriptions", s.Name)
		}
	}
}

// Sizing a run changes document counts only: a longer script must extend a
// shorter one, or segment j would not hold the same documents at every length.
func TestLongerScriptExtendsShorter(t *testing.T) {
	for _, s := range Specs {
		s.Subs = 300
		short, long := s.Build(3, 60), s.Build(3, 150)
		if !reflect.DeepEqual(short.Subs, long.Subs) {
			t.Errorf("%s: subscriptions depend on the document count", s.Name)
		}
		if !reflect.DeepEqual(short.Docs, long.Docs[:60]) {
			t.Errorf("%s: the first 60 documents depend on the document count", s.Name)
		}
		for i, ch := range short.Churn {
			if long.Churn[i] != ch {
				t.Errorf("%s: churn before document %d depends on the document count", s.Name, i)
			}
		}
	}
}

func TestSpecShapes(t *testing.T) {
	for _, s := range Specs {
		sc := s.Build(1, 30)
		if len(sc.Subs) != s.Subs || len(sc.Docs) != 30 {
			t.Errorf("%s: %d subscriptions, %d documents; want %d, 30", s.Name, len(sc.Subs), len(sc.Docs), s.Subs)
		}
		for i, d := range sc.Docs {
			if d.TS != int64(i+1) || strings.ContainsAny(d.XML, "\n\r") {
				t.Fatalf("%s: document %d: timestamp %d, or a line break in its XML", s.Name, i, d.TS)
			}
		}
		if s.Warm < s.Window {
			t.Errorf("%s: %d warm-up documents do not fill a window of %d", s.Name, s.Warm, s.Window)
		}
	}
	churn, _ := Lookup("rss_churn")
	sc := churn.Build(1, 45)
	for _, i := range []int{10, 20, 30, 40} {
		if ch, ok := sc.Churn[i]; !ok || ch.Unsub != i/10-1 || ch.Sub == "" {
			t.Errorf("rss_churn: churn before document %d is %+v", i, ch)
		}
	}
	if len(sc.Churn) != 4 {
		t.Errorf("rss_churn: %d churn points in 45 documents, want 4", len(sc.Churn))
	}
}
