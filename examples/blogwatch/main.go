// Blogwatch: the paper's motivating scenario at scale. A stream of book
// announcements and blog postings flows through the engine while hundreds of
// subscriptions watch for author/title/category correlations — books
// promoted by their own authors, cross-postings, and follow-ups within a
// time window.
//
//	go run ./examples/blogwatch [-posts 400] [-subs 300] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"math/rand"

	mmqjp "repro"
)

var (
	authors    = []string{"Danny Ayers", "Andrew Watt", "Mary Holstege", "Sal Mangano", "Erik Ray", "Eve Maler", "Norman Walsh", "Michael Kay"}
	topics     = []string{"RSS and Atom", "XQuery Basics", "Schema Design", "Streaming XML", "Pub Sub Systems", "Event Processing", "Web Feeds", "XML Pipelines"}
	categories = []string{"Scripting & Programming", "Web Site Development", "Databases", "Distributed Systems"}
)

func main() {
	posts := flag.Int("posts", 400, "number of stream documents")
	subs := flag.Int("subs", 300, "number of subscriptions")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	eng := mmqjp.New(mmqjp.Options{})

	// A third of the subscriptions watch each correlation family; windows
	// vary per subscriber.
	kinds := map[mmqjp.QueryID]string{}
	for i := 0; i < *subs; i++ {
		window := 50 + rng.Intn(400)
		var src, kind string
		switch i % 3 {
		case 0: // book promoted by its own author under the same title
			kind = "self-promotion"
			src = fmt.Sprintf(
				"S//book->b[.//author->a][.//title->t] FOLLOWED BY{a=a2 AND t=t2, %d} S//blog->g[.//author->a2][.//title->t2]", window)
		case 1: // author blogs in the same category as their book
			kind = "category-follow-up"
			src = fmt.Sprintf(
				"S//book->b[.//author->a][.//category->c] FOLLOWED BY{a=a2 AND c=c2, %d} S//blog->g[.//author->a2][.//category->c2]", window)
		default: // blog cross-posting: same author, same title
			kind = "cross-posting"
			src = fmt.Sprintf(
				"S//blog->g1[.//author->a][.//title->t] FOLLOWED BY{a=a2 AND t=t2, %d} S//blog->g2[.//author->a2][.//title->t2]", window)
		}
		id := eng.MustSubscribe(src)
		kinds[id] = kind
	}
	fmt.Printf("registered %d subscriptions sharing %d query template(s)\n\n", eng.NumQueries(), eng.NumTemplates())

	// Stream: a mix of announcements and blog posts with correlated
	// values so the subscriptions actually fire.
	firedByKind := map[string]int{}
	total := 0
	for i := 0; i < *posts; i++ {
		ts := int64((i + 1) * 10)
		var doc *mmqjp.Document
		author := authors[rng.Intn(len(authors))]
		topic := topics[rng.Intn(len(topics))]
		category := categories[rng.Intn(len(categories))]
		if rng.Intn(4) == 0 {
			b := mmqjp.NewDocumentBuilder(int64(i+1), ts, "book")
			b.Element(0, "author", author)
			b.Element(0, "title", topic)
			b.Element(0, "category", category)
			doc = b.Build()
		} else {
			b := mmqjp.NewDocumentBuilder(int64(i+1), ts, "blog")
			b.Element(0, "author", author)
			b.Element(0, "title", topic)
			b.Element(0, "category", category)
			doc = b.Build()
		}
		res, err := eng.PublishDoc("S", doc)
		if err != nil {
			panic(err)
		}
		for _, m := range res.Matches() {
			firedByKind[kinds[m.Query]]++
			total++
		}
	}

	fmt.Printf("processed %d documents, %d matches:\n", *posts, total)
	for _, k := range []string{"self-promotion", "category-follow-up", "cross-posting"} {
		fmt.Printf("  %-20s %d\n", k, firedByKind[k])
	}
	fmt.Println()
	fmt.Println(eng.Stats())
}
