// Package xscl implements the XML Stream Conjunctive Language of Section 2
// of the paper: the query language of the MMQJP publish/subscribe system.
//
// An XSCL query consists of an optional SELECT clause (only the default
// SELECT * is supported, producing the paper's default output tree), a FROM
// clause combining one or two XPath query blocks with a windowed join
// operator, and an optional PUBLISH clause naming the output stream:
//
//	SELECT * FROM
//	  S//book->x1[.//author->x2][.//title->x3]
//	  FOLLOWED BY{x2=x5 AND x3=x6, 100}
//	  S//blog->x4[.//author->x5][.//title->x6]
//	PUBLISH matches
//
// SELECT * FROM and PUBLISH may be omitted; the FROM expression alone is a
// valid query. The join operators are FOLLOWED BY (sequence: the left event
// strictly precedes the right event) and JOIN (symmetric window join); both
// take a conjunctive equality predicate over variables and a window length
// in time units (or INF for an unbounded window).
//
// Queries are validated into the paper's value-join normal form: every
// equality predicate must relate one variable bound in the left block to one
// variable bound in the right block (predicates written right=left are
// swapped into place).
package xscl

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/xpath"
)

// WindowInf is the window length representing an unbounded window (∞).
const WindowInf int64 = math.MaxInt64

// WindowKind distinguishes time-based windows (the paper's T parameter)
// from tuple-based windows (ROWS n — "all our techniques extend to
// tuple-based window joins", Section 2).
type WindowKind uint8

const (
	// WindowTime interprets the window as a timestamp difference bound.
	WindowTime WindowKind = iota
	// WindowCount interprets the window as an event-count bound: the two
	// events must be at most n stream positions apart.
	WindowCount
)

// OpKind is the join operator of a two-block query.
type OpKind uint8

const (
	// OpNone marks a single-block query (pure tree-pattern filter).
	OpNone OpKind = iota
	// OpFollowedBy is the sequencing operator: left strictly before
	// right, within the window.
	OpFollowedBy
	// OpJoin is the symmetric time-window join.
	OpJoin
)

func (o OpKind) String() string {
	switch o {
	case OpFollowedBy:
		return "FOLLOWED BY"
	case OpJoin:
		return "JOIN"
	default:
		return "(none)"
	}
}

// ValueJoin is one equality predicate in value-join normal form: LeftVar is
// bound in the left block, RightVar in the right block. The names the join
// processor shares the variables' rows under (Section 3) are their filter
// classes: the step path from the block root with the subtrees its template
// drops along it (internal/core classNames).
type ValueJoin struct {
	LeftVar  string
	RightVar string
}

// Query is a parsed, validated XSCL query.
type Query struct {
	// Publish is the output stream name from the PUBLISH clause ("" if
	// omitted).
	Publish string
	Left    *xpath.Pattern
	Right   *xpath.Pattern // nil when Op == OpNone
	Op      OpKind
	Preds   []ValueJoin
	Window  int64 // time units or events; WindowInf for ∞
	// WindowKind selects time-based (default) or tuple-based windows.
	WindowKind WindowKind

	// Source is the original query text.
	Source string
}

// String reconstructs the query in XSCL syntax.
func (q *Query) String() string {
	if q.Op == OpNone {
		return q.Left.String()
	}
	var preds []string
	for _, p := range q.Preds {
		preds = append(preds, p.LeftVar+"="+p.RightVar)
	}
	w := "INF"
	if q.Window != WindowInf {
		w = strconv.FormatInt(q.Window, 10)
		if q.WindowKind == WindowCount {
			w = "ROWS " + w
		}
	}
	s := fmt.Sprintf("%s %s{%s, %s} %s", q.Left.String(), q.Op, strings.Join(preds, " AND "), w, q.Right.String())
	if q.Publish != "" {
		s += " PUBLISH " + q.Publish
	}
	return s
}

// Parse parses a single XSCL query.
func Parse(src string) (*Query, error) {
	p := &parser{src: src, rest: src}
	q, err := p.query()
	if err != nil {
		return nil, fmt.Errorf("xscl: parsing %q: %w", src, err)
	}
	q.Source = src
	return q, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseProgram parses a sequence of queries separated by semicolons.
// Blank statements are ignored.
func ParseProgram(src string) ([]*Query, error) {
	var out []*Query
	for _, stmt := range strings.Split(src, ";") {
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		q, err := Parse(stmt)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

type parser struct {
	src  string
	rest string
}

func (p *parser) ws() {
	i := 0
	for i < len(p.rest) && (p.rest[i] == ' ' || p.rest[i] == '\t' || p.rest[i] == '\r' || p.rest[i] == '\n') {
		i++
	}
	p.rest = p.rest[i:]
}

// keyword consumes kw (case sensitive, word-delimited) if present.
func (p *parser) keyword(kw string) bool {
	p.ws()
	if !strings.HasPrefix(p.rest, kw) {
		return false
	}
	after := p.rest[len(kw):]
	if after != "" {
		c := after[0]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			return false
		}
	}
	p.rest = after
	return true
}

func (p *parser) ident() string {
	p.ws()
	i := 0
	for i < len(p.rest) {
		c := p.rest[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && (c >= '0' && c <= '9')) {
			i++
			continue
		}
		break
	}
	id := p.rest[:i]
	p.rest = p.rest[i:]
	return id
}

// varName also accepts digits and trailing primes (x5').
func (p *parser) varName() string {
	v := p.ident()
	for strings.HasPrefix(p.rest, "'") {
		v += "'"
		p.rest = p.rest[1:]
	}
	return v
}

func (p *parser) query() (*Query, error) {
	// Optional SELECT * FROM prefix.
	if p.keyword("SELECT") {
		p.ws()
		if !strings.HasPrefix(p.rest, "*") {
			return nil, fmt.Errorf("only SELECT * is supported")
		}
		p.rest = p.rest[1:]
		if !p.keyword("FROM") {
			return nil, fmt.Errorf("expected FROM after SELECT *")
		}
	}

	p.ws()
	left, rest, err := xpath.ParseBlockPrefix(p.rest)
	if err != nil {
		return nil, err
	}
	p.rest = rest

	q := &Query{Left: left, Op: OpNone, Window: WindowInf}

	switch {
	case p.keyword("FOLLOWED"):
		if !p.keyword("BY") {
			return nil, fmt.Errorf("expected BY after FOLLOWED")
		}
		q.Op = OpFollowedBy
	case p.keyword("JOIN"):
		q.Op = OpJoin
	}

	if q.Op != OpNone {
		if err := p.joinSuffix(q); err != nil {
			return nil, err
		}
	}

	if p.keyword("PUBLISH") {
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("expected stream name after PUBLISH")
		}
		q.Publish = name
	}
	p.ws()
	if p.rest != "" {
		return nil, fmt.Errorf("trailing input: %q", p.rest)
	}
	return q, q.validate()
}

func (p *parser) joinSuffix(q *Query) error {
	p.ws()
	if !strings.HasPrefix(p.rest, "{") {
		return fmt.Errorf("expected { after %s", q.Op)
	}
	p.rest = p.rest[1:]

	for {
		lv := p.varName()
		if lv == "" {
			return fmt.Errorf("expected variable in join predicate")
		}
		p.ws()
		if !strings.HasPrefix(p.rest, "=") {
			return fmt.Errorf("expected = in join predicate")
		}
		p.rest = p.rest[1:]
		rv := p.varName()
		if rv == "" {
			return fmt.Errorf("expected variable after = in join predicate")
		}
		q.Preds = append(q.Preds, ValueJoin{LeftVar: lv, RightVar: rv})
		if !p.keyword("AND") {
			break
		}
	}

	p.ws()
	if !strings.HasPrefix(p.rest, ",") {
		return fmt.Errorf("expected , before window length")
	}
	p.rest = p.rest[1:]
	p.ws()
	if p.keyword("INF") {
		q.Window = WindowInf
	} else {
		if p.keyword("ROWS") {
			q.WindowKind = WindowCount
			p.ws()
		}
		i := 0
		for i < len(p.rest) && p.rest[i] >= '0' && p.rest[i] <= '9' {
			i++
		}
		if i == 0 {
			return fmt.Errorf("expected window length (integer or INF)")
		}
		w, err := strconv.ParseInt(p.rest[:i], 10, 64)
		if err != nil {
			return fmt.Errorf("window length: %w", err)
		}
		if w <= 0 {
			return fmt.Errorf("window length must be positive")
		}
		q.Window = w
		p.rest = p.rest[i:]
	}
	p.ws()
	if !strings.HasPrefix(p.rest, "}") {
		return fmt.Errorf("expected } after window length")
	}
	p.rest = p.rest[1:]

	p.ws()
	right, rest, err := xpath.ParseBlockPrefix(p.rest)
	if err != nil {
		return err
	}
	q.Right = right
	p.rest = rest
	return nil
}

// validate checks value-join normal form. Predicates written right=left are
// swapped so that LeftVar is always bound in the left block.
func (q *Query) validate() error {
	if q.Op == OpNone {
		if len(q.Preds) != 0 || q.Right != nil {
			return fmt.Errorf("single-block query cannot have join predicates")
		}
		return nil
	}
	if len(q.Preds) == 0 {
		return fmt.Errorf("%s requires at least one value join predicate", q.Op)
	}
	for i := range q.Preds {
		pr := &q.Preds[i]
		if q.Left.VarNode(pr.LeftVar) != nil && q.Right.VarNode(pr.RightVar) != nil {
			continue
		}
		// Try the swapped orientation.
		if q.Left.VarNode(pr.RightVar) != nil && q.Right.VarNode(pr.LeftVar) != nil {
			pr.LeftVar, pr.RightVar = pr.RightVar, pr.LeftVar
			continue
		}
		return fmt.Errorf("predicate %s=%s is not in value-join normal form: each equality must relate a left-block variable to a right-block variable", pr.LeftVar, pr.RightVar)
	}
	return nil
}

// PaperQ1 returns query Q1 of Table 2 with the given window.
func PaperQ1(window int64) *Query {
	return MustParse(fmt.Sprintf(
		"S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, %d} S//blog->x4[.//author->x5][.//title->x6]", window))
}

// PaperQ2 returns query Q2 of Table 2 with the given window.
func PaperQ2(window int64) *Query {
	return MustParse(fmt.Sprintf(
		"S//book->x1[.//author->x2][.//category->x7] FOLLOWED BY{x2=x5 AND x7=x8, %d} S//blog->x4[.//author->x5][.//category->x8]", window))
}

// PaperQ3 returns query Q3 of Table 2 with the given window.
func PaperQ3(window int64) *Query {
	return MustParse(fmt.Sprintf(
		"S//blog->x4[.//author->x5][.//title->x6] FOLLOWED BY{x5=x5' AND x6=x6', %d} S//blog->x4'[.//author->x5'][.//title->x6']", window))
}
