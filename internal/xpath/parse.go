package xpath

import (
	"fmt"
	"strings"
)

// ParseBlock parses an XSCL query block such as
//
//	S//book->x1[.//author->x2][.//title->x3]
//
// into a Pattern. The grammar is
//
//	block     = stream relpath
//	relpath   = step { step }
//	step      = axis nametest [ "->" var ] { predicate }
//	predicate = "[" "." relpath "]"
//	axis      = "/" | "//"
//	nametest  = [ "@" ] ( name | "*" )
//
// A step following a predicate list continues the main path, i.e. it becomes
// another pattern child of the step carrying the predicates.
func ParseBlock(src string) (*Pattern, error) {
	p := &blockParser{src: src}
	pat, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xpath: parsing %q: %w", src, err)
	}
	return pat, nil
}

// ParseBlockPrefix parses a query block from the beginning of src and
// returns the remaining unconsumed input. It is used by the XSCL parser to
// read a block embedded in a larger query (the block ends at the first
// character that cannot extend it, e.g. the FOLLOWED BY keyword).
func ParseBlockPrefix(src string) (*Pattern, string, error) {
	p := &blockParser{src: src}
	stream := p.ident()
	if stream == "" {
		return nil, src, fmt.Errorf("xpath: expected stream name at %q", src)
	}
	p.ws()
	if p.peek() != '/' {
		// A bare stream name selects every document on the stream:
		// the pattern is the document root itself.
		pat := &Pattern{Stream: stream, Root: &PatternNode{Axis: Child, Name: "*"}}
		pat.finalize()
		return pat, src[p.pos:], nil
	}
	root, err := p.relpath()
	if err != nil {
		return nil, src, fmt.Errorf("xpath: parsing block prefix of %q: %w", src, err)
	}
	pat := &Pattern{Stream: stream, Root: root, Nodes: make([]*PatternNode, 0, p.nodes), VarNodes: make([]int, 0, p.bound)}
	pat.finalize()
	return pat, src[p.pos:], nil
}

// MustParseBlock is ParseBlock, panicking on error. For tests and examples
// with literal patterns.
func MustParseBlock(src string) *Pattern {
	p, err := ParseBlock(src)
	if err != nil {
		panic(err)
	}
	return p
}

type blockParser struct {
	src string
	pos int
	// nodes and bound count the steps parsed and bound, to size the
	// pattern's Nodes and VarNodes.
	nodes, bound int
}

func (p *blockParser) parse() (*Pattern, error) {
	stream := p.ident()
	if stream == "" {
		return nil, fmt.Errorf("expected stream name at offset %d", p.pos)
	}
	root, err := p.relpath()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	pat := &Pattern{Stream: stream, Root: root, Nodes: make([]*PatternNode, 0, p.nodes), VarNodes: make([]int, 0, p.bound)}
	pat.finalize()
	return pat, nil
}

// relpath parses one or more steps and returns the first step's node; each
// subsequent step is attached as a child of the previous one.
func (p *blockParser) relpath() (*PatternNode, error) {
	first, err := p.step()
	if err != nil {
		return nil, err
	}
	cur := first
	for {
		p.ws()
		if !strings.HasPrefix(p.src[p.pos:], "/") {
			return first, nil
		}
		next, err := p.step()
		if err != nil {
			return nil, err
		}
		cur.Children = append(cur.Children, next)
		cur = next
	}
}

func (p *blockParser) step() (*PatternNode, error) {
	p.ws()
	axis := Child
	if strings.HasPrefix(p.src[p.pos:], "//") {
		axis = Descendant
		p.pos += 2
	} else if strings.HasPrefix(p.src[p.pos:], "/") {
		p.pos++
	} else {
		return nil, fmt.Errorf("expected axis at offset %d", p.pos)
	}
	isAttr := false
	if p.peek() == '@' {
		isAttr = true
		p.pos++
	}
	var name string
	if p.peek() == '*' {
		name = "*"
		p.pos++
	} else {
		name = p.ident()
		if name == "" {
			return nil, fmt.Errorf("expected name test at offset %d", p.pos)
		}
	}
	n := &PatternNode{Axis: axis, Name: name, IsAttr: isAttr}
	p.nodes++
	p.ws()
	if strings.HasPrefix(p.src[p.pos:], "->") {
		p.pos += 2
		v := p.varName()
		if v == "" {
			return nil, fmt.Errorf("expected variable name after -> at offset %d", p.pos)
		}
		n.Var = v
		p.bound++
	}
	for {
		p.ws()
		if p.peek() != '[' {
			break
		}
		p.pos++
		p.ws()
		if p.peek() != '.' {
			return nil, fmt.Errorf("expected . at start of predicate at offset %d", p.pos)
		}
		p.pos++
		child, err := p.relpath()
		if err != nil {
			return nil, err
		}
		p.ws()
		if p.peek() != ']' {
			return nil, fmt.Errorf("expected ] at offset %d", p.pos)
		}
		p.pos++
		n.Children = append(n.Children, child)
	}
	return n, nil
}

func (p *blockParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *blockParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentRest(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '-'
}

func (p *blockParser) ident() string {
	p.ws()
	start := p.pos
	if p.pos < len(p.src) && isIdentStart(p.src[p.pos]) {
		p.pos++
		for p.pos < len(p.src) && isIdentRest(p.src[p.pos]) {
			// A '-' followed by '>' is the binding arrow, not part
			// of a hyphenated name like item-url.
			if p.src[p.pos] == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '>' {
				break
			}
			p.pos++
		}
	}
	return p.src[start:p.pos]
}

// varName is like ident but additionally accepts trailing primes (x5').
func (p *blockParser) varName() string {
	v := p.ident()
	for p.pos < len(p.src) && p.src[p.pos] == '\'' {
		p.pos++
		v += "'"
	}
	return v
}
