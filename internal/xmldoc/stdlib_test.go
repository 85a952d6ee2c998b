package xmldoc_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// workloadTexts serialises n documents of each in-tree workload generator —
// the shapes the benchmark's four workloads publish.
func workloadTexts(n int) []string {
	var out []string
	for _, gen := range []docGenerator{workload.DefaultRSS(), workload.DefaultDeepFeed(), workload.DefaultPaperScale()} {
		for _, d := range gen.Stream(rand.New(rand.NewSource(8)), n) {
			out = append(out, d.XMLText())
		}
	}
	return out
}

// TestParseMatchesStdlibOnWorkloads holds ParseString to the encoding/xml
// reference on every generated document shape, serialised as the server
// receives it and re-indented with CR LF line ends.
func TestParseMatchesStdlibOnWorkloads(t *testing.T) {
	for i, src := range workloadTexts(300) {
		for _, s := range []string{src, strings.ReplaceAll(src, "><", ">\r\n  <")} {
			got, err := xmldoc.ParseString(s, xmldoc.DocID(i), 7)
			if err != nil {
				t.Fatalf("document %d: %v", i, err)
			}
			want, err := parseStdlib(s, xmldoc.DocID(i), 7)
			if err != nil {
				t.Fatalf("document %d: reference: %v", i, err)
			}
			if diff := diffDocuments(got, want); diff != "" {
				t.Fatalf("document %d: %s\n%s", i, diff, s)
			}
			if diff := xmldoc.DiffValues(got); diff != "" {
				t.Fatalf("document %d: %s\n%s", i, diff, s)
			}
		}
	}
}

// stdlibSeeds exercise every construct of the accepted subset and the
// unsupported ones.
var stdlibSeeds = []string{
	`<a>x &amp; y &lt;&gt; &apos;&quot; &#65;&#x42;&#x1F600;</a>`,
	`<a t="&amp;&#9;" u='"q"'>v</a>`,
	`<a><![CDATA[<b>&amp;</b>]]>tail<![CDATA[]]></a>`,
	`<!-- head --><a><!----><b>x<!-- in -->y</b></a><!-- tail -->`,
	`<?xml version="1.0" encoding="UTF-8"?><?pi data?><a><?x?></a>`,
	`<?xml version="1.1"?><a/>`,
	`<x:a xmlns:x="urn:x" xmlns="urn:d" x:k="1" xml:lang="en"><x:b y:c="2"/></x:a>`,
	"<a>\r\n  <b>one\r\ntwo\rthree</b>\r\n</a>\r\n",
	"<a k=\"l1\r\nl2\">été 日本 \U0001F600</a>",
	"\uFEFF<a>  text \u3000</a>",
	"<r>top<a>inner</a> mid <b/>end</r>",
	"<a:b:c/>", "<:a a:=\"1\"/>", "<a x=\"1\"y=\"2\"/>",
	"<!DOCTYPE a><a/>", "<é/>", "<a>&#xD800;</a>", `<a xmlns:p="xmlns" p:k="1"/>`,
}

// FuzzParseMatchesStdlib holds ParseString to the encoding/xml tree builder
// it replaced: when the scanner accepts an input, the reference accepts it
// with an identical node table, and every node's string value equals the
// eager oracle's (xmldoc.DiffValues); when only the reference accepts it, the
// scanner must have named one of the unsupported constructs the package
// comment lists, and the input must contain it.
func FuzzParseMatchesStdlib(f *testing.F) {
	for _, s := range workloadTexts(2) {
		f.Add(s)
	}
	for _, s := range stdlibSeeds {
		f.Add(s)
	}
	evidence := map[string]func(string) bool{
		xmldoc.UnsupportedDecl:      func(s string) bool { return strings.Contains(s, "<!") },
		xmldoc.UnsupportedName:      func(s string) bool { return strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) >= 0 },
		xmldoc.UnsupportedSurrogate: func(s string) bool { return strings.Contains(s, "&#") },
		xmldoc.UnsupportedXMLNS:     func(s string) bool { return strings.Contains(s, "xmlns") },
		xmldoc.UnsupportedDepth:     func(s string) bool { return strings.Count(s, "<") > xmldoc.MaxDepth },
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := xmldoc.ParseString(src, 1, 10)
		want, refErr := parseStdlib(src, 1, 10)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("scanner accepts what encoding/xml rejects (%v): %q", refErr, src)
		case err == nil:
			if diff := diffDocuments(got, want); diff != "" {
				t.Fatalf("%s: %q", diff, src)
			}
			if diff := xmldoc.DiffValues(got); diff != "" {
				t.Fatalf("%s: %q", diff, src)
			}
		case refErr == nil:
			construct, ok := xmldoc.Unsupported(err)
			if !ok {
				t.Fatalf("scanner rejects what encoding/xml accepts, as a syntax error (%v): %q", err, src)
			}
			if !evidence[construct](src) {
				t.Fatalf("scanner rejects %q as %q, which it does not contain", src, construct)
			}
		}
	})
}

// TestParseRejects feeds hostile bytes to both parsers: each is rejected
// without a panic. Two are XML encoding/xml accepts and the scanner refuses
// as unsupported — a surrogate reference, which encoding/xml reads as U+FFFD,
// and nesting it does not bound.
func TestParseRejects(t *testing.T) {
	deep := strings.Repeat("<a>", 100000) + strings.Repeat("</a>", 100000)
	for _, tc := range []struct {
		name, src   string
		unsupported string // "": a syntax error to both parsers
	}{
		{"mismatched end tag", "<a><b></a></b>", ""},
		{"unclosed element", "<a><b></b>", ""},
		{"two roots", "<a/><b/>", ""},
		{"empty input", "", ""},
		{"white space only", " \r\n<!-- -->", ""},
		{"unknown entity", "<a>&nbsp;</a>", ""},
		{"entity without semicolon", "<a>&amp</a>", ""},
		{"NUL reference", "<a>&#0;</a>", ""},
		{"reference beyond Unicode", "<a>&#x110000;</a>", ""},
		{"surrogate reference", "<a>&#xD800;</a>", xmldoc.UnsupportedSurrogate},
		{"invalid UTF-8", "<a>\xff\xfe</a>", ""},
		{"control character", "<a>\x01</a>", ""},
		{"< in attribute value", `<a k="<"/>`, ""},
		{"unquoted attribute", "<a k=v/>", ""},
		{"attribute without value", "<a k/>", ""},
		{"unterminated comment", "<a><!-- x </a>", ""},
		{"-- in comment", "<a><!-- x -- y --></a>", ""},
		{"unterminated CDATA", "<a><![CDATA[ x </a>", ""},
		{"unterminated processing instruction", "<a><?pi x </a>", ""},
		{"]]> in text", "<a>x]]>y</a>", ""},
		{"two colons in a name", "<a:b:c/>", ""},
		{"name starting with a digit", "<1a/>", ""},
		{"end tag without start", "</a>", ""},
		{"XML version 1.1", `<?xml version="1.1"?><a/>`, ""},
		{"100 000 levels of nesting", deep, xmldoc.UnsupportedDepth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := xmldoc.ParseString(tc.src, 1, 1)
			if err == nil {
				t.Fatal("ParseString accepted it")
			}
			if !strings.HasPrefix(err.Error(), "xmldoc: ") {
				t.Errorf("error %q lacks the package prefix", err)
			}
			construct, unsupported := xmldoc.Unsupported(err)
			_, refErr := parseStdlib(tc.src, 1, 1)
			switch {
			case tc.unsupported == "" && (unsupported || refErr == nil):
				t.Errorf("want a syntax error from both parsers; scanner: %v, encoding/xml: %v", err, refErr)
			case tc.unsupported != "" && (construct != tc.unsupported || refErr != nil):
				t.Errorf("want %q refused as unsupported and accepted by encoding/xml; scanner: %v, encoding/xml: %v",
					tc.unsupported, err, refErr)
			}
		})
	}
}
