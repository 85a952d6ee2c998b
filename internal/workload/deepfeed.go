package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// DeepFeed is the in-tree stand-in for the benchmark's deep_filter workload
// (benchmark/gen, a separate module the root module cannot import): many
// single-block path filters over depth-6 feed documents of Entries entries,
// each entry carrying two of Topics distinct topic element names. Every
// filter tests for one topic, so with the defaults a filter finds a witness
// in about one document in 25 — the regime where Stage-1 cost must follow
// what the document matched, not how many filters are registered.
type DeepFeed struct {
	Entries int   // entries per document
	Topics  int   // distinct topic element names t0..t(Topics-1)
	Authors int   // author-name pool; near-unique when large
	Window  int64 // window of the two-block joins
}

// DefaultDeepFeed returns the deep_filter shape: 20 entries (about 265
// nodes) per document, 1 000 topics.
func DefaultDeepFeed() DeepFeed {
	return DeepFeed{Entries: 20, Topics: 1000, Authors: 500000, Window: 200}
}

// Filter returns a single-block path filter for the given topic in one of
// ten shapes, which differ in axes, predicate nesting and where the topic
// test sits. A topic outside [0, Topics) never occurs in a document.
func (c DeepFeed) Filter(rng *rand.Rand, topic int) *xscl.Query {
	var src string
	switch rng.Intn(10) {
	case 0:
		src = fmt.Sprintf("S//entry->e[./topics/t%d]", topic)
	case 1:
		src = fmt.Sprintf("S/feed/entry[./topics/t%d]/author/name->n", topic)
	case 2:
		src = fmt.Sprintf("S//entry->e[./topics/t%d][./author/name->n]", topic)
	case 3:
		src = fmt.Sprintf("S//entry[./topics/t%d]/content//span->s", topic)
	case 4:
		src = fmt.Sprintf("S/feed/entry/topics/t%d->t", topic)
	case 5:
		src = fmt.Sprintf("S//feed[./head/generator]//entry->e[.//t%d]", topic)
	case 6:
		src = fmt.Sprintf("S//entry->e[./topics/t%d][./topics/t%d]", topic, rng.Intn(c.Topics))
	case 7:
		src = fmt.Sprintf("S/feed/entry->e[./content/section/para/span][./topics/t%d]", topic)
	case 8:
		src = fmt.Sprintf("S//topics/t%d->t", topic)
	default:
		src = fmt.Sprintf("S//entry->e[./ref][.//section//span][./topics/t%d]", topic)
	}
	return xscl.MustParse(src)
}

// Queries generates n subscriptions: filters on uniformly drawn topics, and
// every eleventh a two-block join on a near-unique value (an entry and a
// later one that cites it or shares its author).
func (c DeepFeed) Queries(rng *rand.Rand, n int) []*xscl.Query {
	joins := []string{
		"S//entry->e[./id->x] FOLLOWED BY{x=y, %d} S//entry->f[./ref->y]",
		"S//entry->e[./author/name->x] FOLLOWED BY{x=y, %d} S//entry->f[./author/name->y]",
		"S//author->a[./name->x] JOIN{x=y, %d} S//author->b[./name->y]",
	}
	out := make([]*xscl.Query, n)
	for i := range out {
		if i%11 == 10 {
			out[i] = xscl.MustParse(fmt.Sprintf(joins[rng.Intn(len(joins))], c.Window))
		} else {
			out[i] = c.Filter(rng, rng.Intn(c.Topics))
		}
	}
	return out
}

// Item builds the i-th feed document. Timestamps advance by one per item.
func (c DeepFeed) Item(rng *rand.Rand, i int) *xmldoc.Document {
	b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "feed")
	head := b.Element(0, "head", "")
	b.Element(head, "title", fmt.Sprintf("feed %d", rng.Intn(1000)))
	b.Element(head, "updated", fmt.Sprint(i+1))
	b.Element(head, "generator", fmt.Sprintf("gen-%d", rng.Intn(7)))
	for j := 0; j < c.Entries; j++ {
		e := b.Element(0, "entry", "")
		b.Element(e, "id", fmt.Sprintf("urn:e:%d:%d", i, j))
		b.Element(e, "title", fmt.Sprintf("title %d", rng.Intn(100000)))
		b.Element(b.Element(e, "author", ""), "name", fmt.Sprintf("author-%d", rng.Intn(c.Authors)))
		topics := b.Element(e, "topics", "")
		b.Element(topics, fmt.Sprintf("t%d", rng.Intn(c.Topics)), "")
		b.Element(topics, fmt.Sprintf("t%d", rng.Intn(c.Topics)), "")
		para := b.Element(b.Element(b.Element(e, "content", ""), "section", ""), "para", "")
		b.Element(para, "span", "stream query join window")
		b.Element(para, "span", "publish subscribe filter witness")
		if i > 0 && rng.Intn(50) == 0 {
			b.Element(e, "ref", fmt.Sprintf("urn:e:%d:%d", i-1-rng.Intn(min(i, 50)), rng.Intn(c.Entries)))
		}
	}
	return b.Build()
}

// Stream materializes n documents.
func (c DeepFeed) Stream(rng *rand.Rand, n int) []*xmldoc.Document {
	out := make([]*xmldoc.Document, n)
	for i := range out {
		out[i] = c.Item(rng, i)
	}
	return out
}
