// Package gen builds the benchmark's inputs: for a workload name and a seed,
// the subscriptions a client registers and the documents it then publishes,
// as the text a client would send. It shares no code with the repository's
// own generators, so an edit there cannot change what the benchmark measures.
package gen

import (
	"fmt"
	"strings"
)

// Stream is the stream name every subscription reads and every document is
// published on.
const Stream = "S"

// Doc is one document to publish. Timestamps advance by one per document, so
// a window of w time units holds the last w documents.
type Doc struct {
	TS  int64
	XML string
}

// Churn is a registration change applied just before a document: the
// subscription with id Unsub is removed and Sub is registered. Subscription
// ids count registrations from 0, which is how the server numbers them.
type Churn struct {
	Unsub int
	Sub   string
}

// Script is everything one repeat sends, in order: Subs, then Docs with
// Churn[i] (if present) applied before Docs[i].
type Script struct {
	Subs  []string
	Docs  []Doc
	Churn map[int]Churn
}

// Spec fixes a workload's shape and its document counts at the default run
// length. Later issues refer to workloads by Name; sizing a run changes the
// document counts only.
type Spec struct {
	Name string
	Subs int
	// Window is every join's window, in documents.
	Window int
	// Warm documents fill the window before anything is timed; Sat and
	// Paced are the documents of the two measured phases.
	Warm, Sat, Paced int
	// PacedRate is the open-loop arrival rate in documents per second:
	// about 40% of the saturation rate measured on the 2-core gate host
	// when the benchmark was written, then frozen.
	PacedRate float64
	// TraceDocs is how many documents after warm-up the traced run replays.
	TraceDocs int
	// HostWeight is the share of the workload's time that slows down with
	// the host reference (load.Normalise): fitted on the 2-core gate host
	// when the benchmark was written, then frozen.
	HostWeight float64
	build      func(s Spec, seed int64, ndocs int) *Script
}

// Specs lists the workloads in the order they are run and reported.
var Specs = []Spec{
	// The paper's headline regime (section 6.3): few templates, massive
	// instance sharing, ~180 matches per document. Stage-2 joins, the view
	// cache (channel URLs repeat constantly) and MATCH reply encoding do
	// most of the work, Stage 1 little.
	{
		Name: "rss_window",
		Subs: 10000, Window: 500, Warm: 500, Sat: 1100, Paced: 150, PacedRate: 130, TraceDocs: 1000,
		HostWeight: 0.35,
		build:      buildRSS,
	},
	// 50+ canonical templates from sampled wiring shapes: per-template
	// conjunctive-query evaluation is nearly all of the cost, it is the
	// only workload where template-parallel workers have work to share,
	// and the wire is negligible. A Stage-2 plan change must show here.
	{
		Name: "paper_scale",
		Subs: 2000, Window: 200, Warm: 200, Sat: 400, Paced: 45, PacedRate: 45, TraceDocs: 200,
		HostWeight: 0.75,
		build:      buildPaperScale,
	},
	// 1 000 single-block path filters and 100 joins on near-unique values
	// over 8 KB, ~265-node, depth-6 feeds of 20 entries: wire read, XML
	// parse, the NFA and above all witness assembly lead, Stage 2 is about a
	// third. A CQ optimisation must predict little change here, a
	// parser/NFA/witness/ingest one must show.
	{
		Name: "deep_filter",
		Subs: 1100, Window: 200, Warm: 200, Sat: 360, Paced: 40, PacedRate: 40, TraceDocs: 150,
		HostWeight: 0.85,
		build:      buildDeepFilter,
	},
	// rss_window with an UNSUB of the oldest subscription and a SUB of a
	// fresh one before every tenth PUB: the same layers used differently,
	// registration writes beside publish reads. A publish-path gain bought
	// with a slower Register/Unregister, or with a cache that registration
	// invalidates, shows here and not on rss_window.
	{
		Name: "rss_churn",
		Subs: 10000, Window: 500, Warm: 500, Sat: 1100, Paced: 150, PacedRate: 130, TraceDocs: 1000,
		HostWeight: 0.35,
		build:      buildRSSChurn,
	},
}

// Lookup returns the spec with the given name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build generates the workload's script for a seed with ndocs documents.
// The same (seed, ndocs) always gives the same script, and a longer script
// extends a shorter one: document i does not depend on ndocs. The seed draws
// the documents; the standing subscriptions are the same for every seed (see
// shapeSeed).
func (s Spec) Build(seed int64, ndocs int) *Script {
	return s.build(s, seed, ndocs)
}

// shapeSeed draws every workload's standing subscriptions, whatever the run's
// seed. Which templates exist, and how many subscriptions join channel_url to
// channel_url, is the workload's shape: drawn per seed it moved the cost of a
// document by +-15% on paper_scale and the match volume by +-8% on rss_window,
// which is more than the regressions the benchmark is there to catch. The
// run's seed draws what is published: the documents, and on rss_churn the
// fresh subscriptions.
const shapeSeed = 1

// Salts keep the subscription and document random streams apart.
const (
	saltSubs  uint64 = 0x5ab5c81b0001
	saltDocs  uint64 = 0xd0c5d0c50002
	saltChurn uint64 = 0xc4a2c4a20003
)

// ---- rss_window / rss_churn: paper section 6.3 ----

var rssLeaves = []string{"item_url", "channel_url", "title", "timestamp", "description"}

const (
	rssChannels = 418
	rssTitles   = 40000
	rssDescs    = 120000
)

// rssQuery draws one Section-6.3 subscription: k ~ Zipf(5, 0.8) equality
// joins between k distinct leaves on each side.
func rssQuery(r *rng, z zipf, window int) string {
	k := z.sample(r)
	lsel, rsel := r.perm(len(rssLeaves))[:k], r.perm(len(rssLeaves))[:k]
	var lhs, rhs, pred strings.Builder
	lhs.WriteString("S//item->v0")
	rhs.WriteString("S//item->w0")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&lhs, "[./%s->v%d]", rssLeaves[lsel[i]], i+1)
		fmt.Fprintf(&rhs, "[./%s->w%d]", rssLeaves[rsel[i]], i+1)
		if i > 0 {
			pred.WriteString(" AND ")
		}
		fmt.Fprintf(&pred, "v%d=w%d", i+1, i+1)
	}
	return fmt.Sprintf("%s FOLLOWED BY{%s, %d} %s", lhs.String(), pred.String(), window, rhs.String())
}

func rssDocs(seed int64, ndocs int) []Doc {
	r := newRNG(seed, saltDocs)
	docs := make([]Doc, ndocs)
	for i := range docs {
		ch := r.intn(rssChannels)
		docs[i] = Doc{TS: int64(i + 1), XML: fmt.Sprintf(
			"<item><item_url>http://feeds.example/%d/item/%d</item_url><channel_url>http://feeds.example/%d</channel_url><title>title-%d</title><timestamp>%d</timestamp><description>desc-%d</description></item>",
			ch, i, ch, r.intn(rssTitles), i+1, r.intn(rssDescs))}
	}
	return docs
}

func buildRSS(s Spec, seed int64, ndocs int) *Script {
	r := newRNG(shapeSeed, saltSubs)
	z := newZipf(len(rssLeaves), 0.8)
	sc := &Script{Subs: make([]string, s.Subs), Docs: rssDocs(seed, ndocs)}
	for i := range sc.Subs {
		sc.Subs[i] = rssQuery(r, z, s.Window)
	}
	return sc
}

// churnEvery is the number of PUBs between registration changes.
const churnEvery = 10

func buildRSSChurn(s Spec, seed int64, ndocs int) *Script {
	sc := buildRSS(s, seed, ndocs)
	// The fresh subscriptions are part of what the client sends while it
	// is measured, so they come from the seed like the documents.
	r := newRNG(seed, saltChurn)
	z := newZipf(len(rssLeaves), 0.8)
	sc.Churn = map[int]Churn{}
	for i, oldest := churnEvery, 0; i < ndocs; i, oldest = i+churnEvery, oldest+1 {
		sc.Churn[i] = Churn{Unsub: oldest, Sub: rssQuery(r, z, s.Window)}
	}
	return sc
}

// ---- paper_scale: many templates from sampled wiring shapes ----

const (
	psLeaves    = 8
	psMaxK      = 5
	psTheta     = 0.2
	psValuePool = 3000
)

// rgs draws a restricted-growth sequence of length k: label 0 first, each
// later label at most one above the maximum so far. Repeated labels make
// several joins share one bound node, which is what varies the template.
func rgs(r *rng, k int) (seq []int, labels int) {
	seq = make([]int, k)
	max := 0
	for i := 1; i < k; i++ {
		seq[i] = r.intn(max + 2)
		if seq[i] > max {
			max = seq[i]
		}
	}
	return seq, max + 1
}

func psQuery(r *rng, z zipf, window int) string {
	k := z.sample(r)
	var l, rr []int
	var numL, numR int
	for dup := true; dup; {
		l, numL = rgs(r, k)
		rr, numR = rgs(r, k)
		dup = false
		for i := 0; i < k && !dup; i++ {
			for j := i + 1; j < k; j++ {
				if l[i] == l[j] && rr[i] == rr[j] {
					dup = true // the same predicate twice
					break
				}
			}
		}
	}
	lleaf, rleaf := r.perm(psLeaves)[:numL], r.perm(psLeaves)[:numR]
	var lhs, rhs, pred strings.Builder
	lhs.WriteString("S//item->v0")
	rhs.WriteString("S//item->w0")
	for a := 0; a < numL; a++ {
		fmt.Fprintf(&lhs, "[./l%d->v%d]", lleaf[a]+1, a+1)
	}
	for b := 0; b < numR; b++ {
		fmt.Fprintf(&rhs, "[./l%d->w%d]", rleaf[b]+1, b+1)
	}
	for i := 0; i < k; i++ {
		if i > 0 {
			pred.WriteString(" AND ")
		}
		fmt.Fprintf(&pred, "v%d=w%d", l[i]+1, rr[i]+1)
	}
	return fmt.Sprintf("%s FOLLOWED BY{%s, %d} %s", lhs.String(), pred.String(), window, rhs.String())
}

func buildPaperScale(s Spec, seed int64, ndocs int) *Script {
	r := newRNG(shapeSeed, saltSubs)
	z := newZipf(psMaxK, psTheta)
	sc := &Script{Subs: make([]string, s.Subs), Docs: make([]Doc, ndocs)}
	for i := range sc.Subs {
		sc.Subs[i] = psQuery(r, z, s.Window)
	}
	r = newRNG(seed, saltDocs)
	var sb strings.Builder
	for i := range sc.Docs {
		sb.Reset()
		sb.WriteString("<item>")
		for j := 1; j <= psLeaves; j++ {
			fmt.Fprintf(&sb, "<l%d>val-%d</l%d>", j, r.intn(psValuePool), j)
		}
		sb.WriteString("</item>")
		sc.Docs[i] = Doc{TS: int64(i + 1), XML: sb.String()}
	}
	return sc
}

// ---- deep_filter: path filters over deep feed documents ----

const (
	dfEntries   = 20
	dfTopics    = 1000   // distinct topic element names; each entry carries two
	dfAuthors   = 500000 // near-unique: two entries in a window rarely share one
	dfRefEvery  = 50     // one entry in this many cites an earlier entry's id
	dfJoinShare = 11     // one subscription in 11 is a two-block join
)

var dfWords = strings.Fields("stream query join window publish subscribe filter witness template relation " +
	"document channel broker latency throughput index shared state match event")

// dfFilter draws one single-block path filter. Every shape tests for one
// topic element, so a filter fires on about one document in 25; the shapes
// differ in axes, predicate nesting and where the topic test sits.
func dfFilter(r *rng) string {
	a, b := r.intn(dfTopics), r.intn(dfTopics)
	switch r.intn(10) {
	case 0:
		return fmt.Sprintf("S//entry->e[./topics/t%d]", a)
	case 1:
		return fmt.Sprintf("S/feed/entry[./topics/t%d]/author/name->n", a)
	case 2:
		return fmt.Sprintf("S//entry->e[./topics/t%d][./author/name->n]", a)
	case 3:
		return fmt.Sprintf("S//entry[./topics/t%d]/content//span->s", a)
	case 4:
		return fmt.Sprintf("S/feed/entry/topics/t%d->t", a)
	case 5:
		return fmt.Sprintf("S//feed[./head/generator]//entry->e[.//t%d]", a)
	case 6:
		return fmt.Sprintf("S//entry->e[./topics/t%d][./topics/t%d]", a, b)
	case 7:
		return fmt.Sprintf("S/feed/entry->e[./content/section/para/span][./topics/t%d]", a)
	case 8:
		return fmt.Sprintf("S//topics/t%d->t", a)
	default:
		return fmt.Sprintf("S//entry->e[./ref][.//section//span][./topics/t%d]", a)
	}
}

// dfJoins are the two-block joins, all on near-unique values: an entry and a
// later one that cites it, shares its author, or repeats its title. Every
// node of a block is a join variable or an ancestor of one, like the paper's
// queries.
var dfJoins = []string{
	"S//entry->e[./id->x] FOLLOWED BY{x=y, %d} S//entry->f[./ref->y]",
	"S/feed/entry->e[./id->x] FOLLOWED BY{x=y, %d} S//ref->y",
	"S//entry->e[./author/name->x] FOLLOWED BY{x=y, %d} S//entry->f[./author/name->y]",
	"S//author->a[./name->x] JOIN{x=y, %d} S//author->b[./name->y]",
	"S//entry->e[./title->x] FOLLOWED BY{x=y, %d} S//entry->f[./title->y]",
	"S//entry->e[./author/name->x][./title->t] FOLLOWED BY{x=y AND t=u, %d} S//entry->f[./author/name->y][./title->u]",
}

func dfText(r *rng, sb *strings.Builder, words int) {
	for i := 0; i < words; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(dfWords[r.intn(len(dfWords))])
	}
}

func buildDeepFilter(s Spec, seed int64, ndocs int) *Script {
	r := newRNG(shapeSeed, saltSubs)
	sc := &Script{Subs: make([]string, s.Subs), Docs: make([]Doc, ndocs)}
	for i := range sc.Subs {
		if i%dfJoinShare == dfJoinShare-1 {
			sc.Subs[i] = fmt.Sprintf(dfJoins[r.intn(len(dfJoins))], s.Window)
		} else {
			sc.Subs[i] = dfFilter(r)
		}
	}
	r = newRNG(seed, saltDocs)
	var sb strings.Builder
	for i := range sc.Docs {
		sb.Reset()
		fmt.Fprintf(&sb, "<feed><head><title>feed %d</title><link>http://feeds.example/f/%d</link><updated>%d</updated><generator>gen-%d</generator></head>",
			r.intn(1000), r.intn(1000), i+1, r.intn(7))
		for j := 0; j < dfEntries; j++ {
			fmt.Fprintf(&sb, "<entry><id>urn:e:%d:%d</id><title>", i, j)
			dfText(r, &sb, 6)
			fmt.Fprintf(&sb, "</title><author><name>author-%d</name></author><topics><t%d/><t%d/></topics><content><section><para><span>",
				r.intn(dfAuthors), r.intn(dfTopics), r.intn(dfTopics))
			dfText(r, &sb, 12)
			sb.WriteString("</span><span>")
			dfText(r, &sb, 12)
			sb.WriteString("</span></para></section></content>")
			if i > 0 && r.intn(dfRefEvery) == 0 {
				back := 1 + r.intn(min(i, 50))
				fmt.Fprintf(&sb, "<ref>urn:e:%d:%d</ref>", i-back, r.intn(dfEntries))
			}
			sb.WriteString("</entry>")
		}
		sb.WriteString("</feed>")
		sc.Docs[i] = Doc{TS: int64(i + 1), XML: sb.String()}
	}
	return sc
}
