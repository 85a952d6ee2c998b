// Quickstart: register the paper's three example queries (Table 2) and feed
// the two documents of Figures 1 and 2. Queries Q1 and Q2 fire when the blog
// article arrives; Q3 (a blog self-join) stays quiet because only one blog
// posting was published.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	mmqjp "repro"
)

func main() {
	eng := mmqjp.New(mmqjp.Options{
		RetainDocuments: true, // keep documents so matches can be rendered as XML
	})

	// Q1: a book announcement, followed by a blog article from one of its
	// authors with the same title as the book.
	q1 := eng.MustSubscribe(`
		S//book->x1[.//author->x2][.//title->x3]
		FOLLOWED BY{x2=x5 AND x3=x6, 1000}
		S//blog->x4[.//author->x5][.//title->x6]`)

	// Q2: ... on the same category as the book.
	q2 := eng.MustSubscribe(`
		S//book->x1[.//author->x2][.//category->x7]
		FOLLOWED BY{x2=x5 AND x7=x8, 1000}
		S//blog->x4[.//author->x5][.//category->x8]`)

	// Q3: a pair of blog postings by the same author with the same title.
	q3 := eng.MustSubscribe(`
		S//blog->x4[.//author->x5][.//title->x6]
		FOLLOWED BY{x5=x5' AND x6=x6', 1000}
		S//blog->x4'[.//author->x5'][.//title->x6']`)

	names := map[mmqjp.QueryID]string{q1: "Q1", q2: "Q2", q3: "Q3"}

	// Figure 1: the book announcement.
	book := `<book>
		<publisher>Wrox</publisher>
		<author>Andrew Watt</author>
		<author>Danny Ayers</author>
		<title>Beginning RSS and Atom Programming</title>
		<category>Scripting &amp; Programming</category>
		<category>Web Site Development</category>
		<isbn>0764579169</isbn>
	</book>`

	// Figure 2: Danny Ayers' blog article about the book.
	blog := `<blog>
		<url>http://dannyayers.com/topics/books/rss-book</url>
		<author>Danny Ayers</author>
		<title>Beginning RSS and Atom Programming</title>
		<category>Book Announcement</category>
		<category>Scripting &amp; Programming</category>
		<body>Just heard ...</body>
	</blog>`

	feed := func(xml string, id, ts int64) {
		res, err := eng.PublishDoc("S", nil, mmqjp.WithXML(xml, id, ts))
		if err != nil {
			log.Fatal(err)
		}
		matches := res.Matches()
		fmt.Printf("document %d (t=%d): %d match(es)\n", id, ts, len(matches))
		for _, m := range matches {
			fmt.Printf("  %s fired: doc %d (t=%d) followed by doc %d (t=%d)\n",
				names[m.Query], m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS)
			if out, ok := eng.OutputXML(m); ok {
				fmt.Printf("  output: %.120s...\n", out)
			}
		}
	}

	feed(book, 1, 100)
	feed(blog, 2, 200)

	fmt.Println()
	fmt.Println(eng.Stats())
	fmt.Printf("three queries, %d shared query template(s)\n", eng.NumTemplates())
}
