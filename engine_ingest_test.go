package mmqjp

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestAppendPublishXMLKeepsNothing holds AppendPublishXML to its contract
// that nothing of xml is kept after it returns: one engine publishes every
// document from the same byte buffer, overwritten with junk after each call,
// and a reference engine publishes a privately parsed copy of each through
// PublishDoc. The two run a cascading chain, a self-feeding loop, and
// windowed feed queries over 500 documents, under the options that pool the
// parsed documents (the zero Options) and under each that keeps them. Every
// document's matches and error, every match's OutputXML and the final
// snapshot bytes must be equal.
func TestAppendPublishXMLKeepsNothing(t *testing.T) {
	srcs := append([]string{
		"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 100} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents",
		"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]",
		"loop//x->a PUBLISH loop",
		"S//alert->a[./sev->s]",
	}, windowedRSSSources(3, 400)...)
	type doc struct {
		stream, xml string
	}
	docs := []doc{
		{"P", "<page><host>web1</host></page>"},
		{"S", "<alert><host>web1</host><sev>hi</sev></alert>"},
		{"S", "<confirm><host>web1</host><sev>hi</sev></confirm>"},
		{"loop", "<r><x>v</x></r>"},
		{"S", "<unclosed>"},
		{"S", `<alert><host a="&amp;x">web2</host><sev>lo</sev><sev>hi</sev></alert>`},
	}
	for _, d := range workload.DefaultRSS().Stream(rand.New(rand.NewSource(5)), 500) {
		docs = append(docs, doc{"S", d.XMLText()})
	}
	size := 0
	for _, d := range docs {
		size = max(size, len(d.xml))
	}
	junk := bytes.Repeat([]byte("</junk>&"), size/8+1)
	for _, opts := range []Options{{}, {Processor: ProcessorSequential}, {RetainDocuments: true}, {EnableComposition: true}} {
		got, ref := New(opts), New(opts)
		subscribeAll(t, got, srcs)
		subscribeAll(t, ref, srcs)
		buf := make([]byte, 0, size)
		var ms Matches
		total, rendered := 0, 0
		for i, d := range docs {
			id, ts := int64(i+1), int64(10*i)
			buf = append(buf[:0], d.xml...)
			ms.Reset()
			var err error
			ms, err = got.AppendPublishXML(ms, d.stream, buf, id, ts)
			copy(buf[:cap(buf)], junk)
			refDoc, refErr := ParseDocument(d.xml, id, ts)
			if refErr != nil {
				want := (&DocumentError{Index: 0, DocID: id, Err: refErr}).Error()
				if err == nil || err.Error() != want {
					t.Fatalf("%+v document %d: error %v, want %s", opts, i, err, want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%+v document %d: %v", opts, i, err)
			}
			res, err := ref.PublishDoc(d.stream, refDoc)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Matches()
			gotMs := got.appendMatchesLocked(&ms)
			if len(gotMs) != len(want) || len(want) > 0 && !reflect.DeepEqual(gotMs, want) {
				t.Fatalf("%+v document %d: %d matches %+v, want %d %+v", opts, i, len(gotMs), gotMs, len(want), want)
			}
			for _, m := range want {
				gx, gok := got.OutputXML(m)
				wx, wok := ref.OutputXML(m)
				if gx != wx || gok != wok {
					t.Fatalf("%+v document %d: OutputXML %q, %v; want %q, %v", opts, i, gx, gok, wx, wok)
				}
				if wok {
					rendered++
				}
			}
			total += len(want)
		}
		var gs, ws bytes.Buffer
		gErr, wErr := got.Snapshot(&gs), ref.Snapshot(&ws)
		if (gErr == nil) != (wErr == nil) || !bytes.Equal(gs.Bytes(), ws.Bytes()) {
			t.Errorf("%+v: the snapshots differ (errors %v, %v)", opts, gErr, wErr)
		}
		if total < 100 || opts.RetainDocuments && rendered == 0 {
			t.Errorf("%+v: %d matches, %d rendered: the stream exercises too little", opts, total, rendered)
		}
	}
}

// TestPooledDocumentsHoldNothing holds the document pool to what it may keep
// between publishes: a large document (20 000 nodes) published through
// AppendPublishXML, then small ones, must leave no pooled document with a
// node table sized for the large one, and no pooled node holding anything —
// a text would point into a caller's buffer the engine must not keep. The
// pool is drained until it hands out a new document.
func TestPooledDocumentsHoldNothing(t *testing.T) {
	eng := New(Options{})
	subscribeAll(t, eng, []string{"S//item->i[./title->t] JOIN{t=t2, 100} S//item->j[./title->t2]"})
	const large = 20000
	var big bytes.Buffer
	big.WriteString("<feed>")
	for i := 0; i < large-1; i++ {
		big.WriteString("<item>v</item>")
	}
	big.WriteString("</feed>")
	small := []byte("<item><title>t</title><link>http://x/y?a=1</link></item>")
	var ms Matches
	publish := func(buf []byte, id int64) {
		var err error
		ms.Reset()
		if ms, err = eng.AppendPublishXML(ms, "S", buf, id, id); err != nil {
			t.Fatal(err)
		}
		copy(buf, bytes.Repeat([]byte{'#'}, len(buf)))
	}
	publish(big.Bytes(), 1)
	for id := int64(2); id < 6; id++ {
		publish(append([]byte(nil), small...), id)
	}
	pooled := 0
	for {
		d := docPool.Get().(*Document)
		if d.Nodes == nil {
			break // a new document: the pool is empty
		}
		pooled++
		if len(d.Nodes) != 0 || cap(d.Nodes) >= large/2 {
			t.Errorf("pooled document: %d nodes, room for %d after a %d-node document", len(d.Nodes), cap(d.Nodes), large)
		}
		for i, n := range d.Nodes[:cap(d.Nodes)] {
			if !reflect.ValueOf(n).IsZero() {
				t.Fatalf("pooled document: node %d is not zero: %+v", i, n)
			}
		}
	}
	if pooled == 0 && !raceEnabled {
		t.Error("no document was pooled")
	}
}
