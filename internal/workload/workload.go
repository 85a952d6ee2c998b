// Package workload generates the synthetic documents, query sets and feed
// streams used by the paper's evaluation (Section 6).
//
// Three generators are provided:
//
//   - TwoLevel: the "simple document schema" of Section 6.1 — an RSS-item
//     style schema with N leaves under the root, two fixed documents whose
//     corresponding leaves share string values, and the Figure-17 random
//     query construction (k ~ Zipf, k distinct leaves per side, k value
//     joins).
//   - ThreeLevel: the "complex document schema" — three levels with
//     branching factor 4 (16 leaves), bound intermediate variables and up
//     to K value joins per query.
//   - RSS: a synthetic RSS/Atom feed stream standing in for the paper's
//     collected feeds (418 channels, 225K items; see DESIGN.md for the
//     substitution argument), with the Section-6.3 query workload.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Zipf samples integers from 1..N with probability proportional to
// 1/k^theta. Theta = 0 is the uniform distribution; larger values skew
// towards small k, matching the paper's "queries with smaller k values are
// more likely to be generated".
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the distribution over 1..n.
func NewZipf(n int, theta float64) *Zipf {
	z := &Zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1.0 / math.Pow(float64(k), theta)
		z.cdf[k-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Sample draws from 1..N.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range z.cdf {
		if u <= c {
			return i + 1
		}
	}
	return len(z.cdf)
}

// TwoLevel is the simple-schema workload of Section 6.1 with the Table-5
// defaults.
type TwoLevel struct {
	N      int     // number of leaves in the document schema (default 6)
	Theta  float64 // Zipf parameter for the per-query join count k (default 0.8)
	Window int64   // window length assigned to generated queries
}

// DefaultTwoLevel returns the Table-5 parameters.
func DefaultTwoLevel() TwoLevel { return TwoLevel{N: 6, Theta: 0.8, Window: 1000} }

// Documents builds the two fixed documents d1 and d2: N leaves each, all
// string values distinct within a document, and leaf i of d1 sharing its
// value with leaf i of d2.
func (c TwoLevel) Documents() (*xmldoc.Document, *xmldoc.Document) {
	b1 := xmldoc.NewBuilder(1, 100, "r")
	b2 := xmldoc.NewBuilder(2, 200, "r")
	for i := 1; i <= c.N; i++ {
		v := fmt.Sprintf("value-%d", i)
		b1.Element(0, leafName(i), v)
		b2.Element(0, leafName(i), v)
	}
	return b1.Build(), b2.Build()
}

func leafName(i int) string { return fmt.Sprintf("l%d", i) }

// Queries generates n queries with the Figure-17 construction: pick
// k ~ Zipf(1..N); bind v0 to the root and v1..vk to k distinct leaves chosen
// uniformly at random for each side; join vi = v'i.
func (c TwoLevel) Queries(rng *rand.Rand, n int) []*xscl.Query {
	z := NewZipf(c.N, c.Theta)
	out := make([]*xscl.Query, n)
	for i := range out {
		k := z.Sample(rng)
		out[i] = c.query(rng, k)
	}
	return out
}

func (c TwoLevel) query(rng *rand.Rand, k int) *xscl.Query {
	lsel := rng.Perm(c.N)[:k]
	rsel := rng.Perm(c.N)[:k]
	var lhs, rhs, pred strings.Builder
	lhs.WriteString("S//r->v0")
	rhs.WriteString("S//r->w0")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&lhs, "[./%s->v%d]", leafName(lsel[i]+1), i+1)
		fmt.Fprintf(&rhs, "[./%s->w%d]", leafName(rsel[i]+1), i+1)
		if i > 0 {
			pred.WriteString(" AND ")
		}
		fmt.Fprintf(&pred, "v%d=w%d", i+1, i+1)
	}
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, %d} %s",
		lhs.String(), pred.String(), c.Window, rhs.String()))
}

// ThreeLevel is the complex-schema workload of Section 6.1: a three-level
// schema whose root and intermediate nodes have branching factor 4,
// yielding 16 leaves; queries bind the intermediate nodes on the paths to
// their chosen leaves, adding structural joins to the template queries.
type ThreeLevel struct {
	Branch int     // branching factor (default 4)
	K      int     // maximum number of value joins per query (default 4)
	Theta  float64 // Zipf parameter for k (default 0.8)
	Window int64
}

// DefaultThreeLevel returns the Section-6.1 parameters.
func DefaultThreeLevel() ThreeLevel { return ThreeLevel{Branch: 4, K: 4, Theta: 0.8, Window: 1000} }

// NumLeaves returns Branch², the number of schema leaves.
func (c ThreeLevel) NumLeaves() int { return c.Branch * c.Branch }

// Documents builds the two fixed three-level documents with matching leaf
// values at corresponding positions.
func (c ThreeLevel) Documents() (*xmldoc.Document, *xmldoc.Document) {
	build := func(id xmldoc.DocID, ts xmldoc.Timestamp) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, "r")
		for m := 0; m < c.Branch; m++ {
			mid := b.Element(0, fmt.Sprintf("m%d", m), "")
			for l := 0; l < c.Branch; l++ {
				leaf := m*c.Branch + l
				b.Element(mid, fmt.Sprintf("l%d", leaf), fmt.Sprintf("value-%d", leaf))
			}
		}
		return b.Build()
	}
	return build(1, 100), build(2, 200)
}

// Queries generates n queries: k ~ Zipf(1..K) distinct leaves per side, the
// intermediate node on each leaf's path bound to an additional variable
// (shared when two chosen leaves live under the same intermediate), and
// value joins vi = v'i.
func (c ThreeLevel) Queries(rng *rand.Rand, n int) []*xscl.Query {
	z := NewZipf(c.K, c.Theta)
	out := make([]*xscl.Query, n)
	for i := range out {
		k := z.Sample(rng)
		out[i] = c.query(rng, k)
	}
	return out
}

func (c ThreeLevel) query(rng *rand.Rand, k int) *xscl.Query {
	nl := c.NumLeaves()
	lsel := rng.Perm(nl)[:k]
	rsel := rng.Perm(nl)[:k]
	lhs := c.sideBlock(lsel, "v")
	rhs := c.sideBlock(rsel, "w")
	var pred strings.Builder
	for i := 0; i < k; i++ {
		if i > 0 {
			pred.WriteString(" AND ")
		}
		fmt.Fprintf(&pred, "v%d=w%d", i+1, i+1)
	}
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, %d} %s",
		lhs, pred.String(), c.Window, rhs))
}

// sideBlock renders one query block: leaves grouped under their (bound)
// intermediate nodes.
func (c ThreeLevel) sideBlock(leaves []int, pfx string) string {
	group := map[int][]int{} // intermediate -> positions in leaves
	for pos, leaf := range leaves {
		m := leaf / c.Branch
		group[m] = append(group[m], pos)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "S//r->%s0", pfx)
	for m := 0; m < c.Branch; m++ {
		positions, ok := group[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "[./m%d->%sm%d", m, pfx, m)
		for _, pos := range positions {
			fmt.Fprintf(&sb, "[./l%d->%s%d]", leaves[pos], pfx, pos+1)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// RSS is the feed-stream workload of Section 6.3. Each item has the five
// leaves of the paper's feed schema; value pools are sized to induce the
// value-collision structure of real feeds: channel URLs repeat constantly,
// titles repeat occasionally (cross-postings and follow-ups), item URLs are
// unique, descriptions repeat rarely.
type RSS struct {
	Channels  int // number of distinct channels (paper: 418)
	Items     int // number of feed items (paper: 225K)
	TitlePool int // distinct titles; smaller = more cross-postings
	DescPool  int // distinct descriptions
	Theta     float64
}

// DefaultRSS returns the paper's stream shape with a reduced default item
// count (the full 225K items are a flag away in mmqjp-bench).
func DefaultRSS() RSS {
	return RSS{Channels: 418, Items: 225000, TitlePool: 40000, DescPool: 120000, Theta: 0.8}
}

// LeafNames returns the five leaf tags of the feed-item schema.
func (RSS) LeafNames() []string {
	return []string{"item_url", "channel_url", "title", "timestamp", "description"}
}

// Item builds the i-th feed item. Timestamps advance by one unit per item.
func (c RSS) Item(rng *rand.Rand, i int) *xmldoc.Document {
	b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "item")
	ch := rng.Intn(c.Channels)
	b.Element(0, "item_url", fmt.Sprintf("http://feeds.example/%d/item/%d", ch, i))
	b.Element(0, "channel_url", fmt.Sprintf("http://feeds.example/%d", ch))
	b.Element(0, "title", fmt.Sprintf("title-%d", rng.Intn(c.TitlePool)))
	b.Element(0, "timestamp", fmt.Sprintf("%d", i+1))
	b.Element(0, "description", fmt.Sprintf("desc-%d", rng.Intn(c.DescPool)))
	return b.Build()
}

// Stream materializes n items (n ≤ Items).
func (c RSS) Stream(rng *rand.Rand, n int) []*xmldoc.Document {
	if n > c.Items {
		n = c.Items
	}
	out := make([]*xmldoc.Document, n)
	for i := range out {
		out[i] = c.Item(rng, i)
	}
	return out
}

// Queries generates n queries over the feed schema in the manner of Section
// 6.1, with unbounded windows ("We assign a time window of ∞ to all the
// generated queries").
func (c RSS) Queries(rng *rand.Rand, n int) []*xscl.Query {
	names := c.LeafNames()
	z := NewZipf(len(names), c.Theta)
	out := make([]*xscl.Query, n)
	for qi := range out {
		k := z.Sample(rng)
		lsel := rng.Perm(len(names))[:k]
		rsel := rng.Perm(len(names))[:k]
		var lhs, rhs, pred strings.Builder
		lhs.WriteString("S//item->v0")
		rhs.WriteString("S//item->w0")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&lhs, "[./%s->v%d]", names[lsel[i]], i+1)
			fmt.Fprintf(&rhs, "[./%s->w%d]", names[rsel[i]], i+1)
			if i > 0 {
				pred.WriteString(" AND ")
			}
			fmt.Fprintf(&pred, "v%d=w%d", i+1, i+1)
		}
		out[qi] = xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, INF} %s",
			lhs.String(), pred.String(), rhs.String()))
	}
	return out
}
