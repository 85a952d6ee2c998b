package xmldoc

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"strings"
	"unicode/utf8"

	"repro/internal/sym"
)

// maxDepth bounds element nesting; a deeper document is refused as
// unsupported rather than carried through every layer after the parse.
const maxDepth = 10000

// The constructs a well-formed document may contain that ParseString
// refuses (the package comment lists them). Each is reported as an
// unsupported construct, not as a syntax error.
const (
	unsupportedDecl      = "markup declaration (<!DOCTYPE ...> and the like)"
	unsupportedName      = "non-ASCII character in a name"
	unsupportedSurrogate = "character reference to a surrogate"
	unsupportedXMLNS     = `namespace prefix bound to "xmlns"`
	unsupportedDepth     = "elements nested more than 10000 deep"
)

// parseError is a rejected document: not XML, or — unsupported — XML
// outside the accepted subset.
type parseError struct {
	offset      int
	msg         string
	unsupported bool
}

func (e *parseError) Error() string {
	if e.unsupported {
		return fmt.Sprintf("xmldoc: byte %d: unsupported: %s", e.offset, e.msg)
	}
	return fmt.Sprintf("xmldoc: byte %d: %s", e.offset, e.msg)
}

// ParseString parses one XML document and assigns the given stream metadata.
// Attributes become AttributeNode children preceding element children, the
// character data directly inside an element (CDATA included) is its text,
// trimmed of surrounding white space, and names are the local part after a
// namespace prefix.
//
// It is one forward pass over s: element and attribute names are resolved
// to their symbols as they are read (Node.Name is the interner's copy), the
// node table and every Children list come from two allocations sized from
// the input, and an element's text is a substring of s unless it needed
// decoding. No string value is computed (Document.StringValue builds an
// interior element's on demand). It is ParseInto on a new document.
func ParseString(s string, id DocID, ts Timestamp) (*Document, error) {
	d := new(Document)
	if err := ParseInto(d, s, id, ts); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseInto parses s as ParseString does, into d: the node table and the
// Children lists reuse the storage d holds from an earlier parse when it is
// large enough, so reparsing a document no larger than d's last allocates
// nothing. Everything d held before is overwritten; on an error d's content
// is unspecified. The document's text and attribute values are substrings
// of s, as ParseString's are: d reads s until it is reparsed, dropped, or
// its nodes are zeroed (clear(d.Nodes)).
func ParseInto(d *Document, s string, id DocID, ts Timestamp) error {
	// Every node is an element, which has a '<' and — in its end tag or its
	// "/>" — a '/', or an attribute, which has an '=': the node table of a
	// document that parses never outgrows this bound. Nor does it outgrow
	// one node per four bytes ("<a/>", `a=""`), which caps what text full of
	// those bytes can make it reserve at what a document that dense needs.
	bound := min(strings.Count(s, "<"), strings.Count(s, "/")) + strings.Count(s, "=")
	bound = min(bound, len(s)/4)
	// The table is reused zeroed, so scanner.node need not zero a node it
	// hands out; past its length, the table is zero already.
	clear(d.Nodes)
	scratch := takeScratch()
	defer returnScratch(scratch)
	p := scanner{src: s, nodes: d.Nodes[:0], slab: d.slab[:0], stack: scratch.stack[:0], names: &scratch.names}
	if cap(p.nodes) < bound {
		p.nodes = make([]Node, 0, bound)
	}
	if cap(p.slab) < bound-1 {
		p.slab = make([]NodeID, 0, bound-1)
	}
	err := p.document()
	// The stack goes back empty: a frame's name is a substring of s.
	clear(p.stack[:p.deep])
	scratch.stack = p.stack[:0]
	d.ID, d.Timestamp, d.Nodes, d.slab = id, ts, p.nodes, p.slab
	if err != nil {
		return err
	}
	nodes := p.nodes
	for i := 1; i < len(nodes); i++ {
		par := nodes[i].Parent
		nodes[par].Children = append(nodes[par].Children, NodeID(i))
	}
	return nil
}

// scanner is the state of one ParseInto.
type scanner struct {
	src   string
	pos   int
	nodes []Node
	slab  []NodeID // every Children list is carved from it
	stack []frame  // open elements
	deep  int      // the most elements open at once
	names *nameCache
}

// idleScratch holds the scanner scratch no parse is using: a name cache and
// an open-element stack. A cache outlives the documents that filled it, so a
// name an earlier parse on the cache resolved costs a hash and a probe of the
// cache: no lock and no probe of the global table. A cache holds only
// (interner's copy, symbol) pairs, which stay valid for the life of the
// process because the interner never retires a name's id; the stack holds
// nothing once its parse returns. Unlike a sync.Pool, the channel keeps its
// scratch across collections, so a warm cache is not rebuilt; it holds one
// per processor, as many as can parse at once, and scratch returned to a full
// channel is dropped.
var idleScratch = make(chan *scanScratch, runtime.GOMAXPROCS(0))

// scanScratch is what a parse borrows beyond the document it fills. The
// stack keeps the capacity the deepest document on it needed, at most
// maxDepth frames.
type scanScratch struct {
	names nameCache
	stack []frame
}

// takeScratch returns idle scanner scratch, or new scratch.
func takeScratch() *scanScratch {
	select {
	case c := <-idleScratch:
		return c
	default:
		return &scanScratch{names: nameCache{slots: make([]cachedName, 64)}, stack: make([]frame, 0, 16)}
	}
}

// returnScratch gives back scratch the caller no longer uses.
func returnScratch(c *scanScratch) {
	select {
	case idleScratch <- c:
	default:
	}
}

// nameSeed seeds the name caches' hash.
var nameSeed = maphash.MakeSeed()

// nameCacheSlots bounds a name cache: a cache whose names reach half of it is
// emptied, so text full of distinct names cannot make an idle cache grow
// without bound.
const nameCacheSlots = 1 << 13

// nameCache is an open-addressed table of the element and attribute names a
// scanner has resolved, with linear probing; its length is a power of two,
// from 64 to nameCacheSlots, at least twice the number of names.
type nameCache struct {
	slots []cachedName
	n     int
}

// cachedName is a resolved name: an element's or an attribute's local name
// (the interner's copy; "" marks a free slot), its hash and its symbol —
// "@"+name for an attribute.
type cachedName struct {
	name string
	hash uint32
	id   sym.ID
	attr bool
}

// resolve returns the symbol of an element name, or of attribute name local
// when attr is set, and the interner's copy of the name.
func (c *nameCache) resolve(local string, attr bool) (sym.ID, string) {
	h := uint32(maphash.String(nameSeed, local))
	mask := len(c.slots) - 1
	for i := int(h) & mask; c.slots[i].name != ""; i = (i + 1) & mask {
		if e := &c.slots[i]; e.hash == h && e.attr == attr && e.name == local {
			return e.id, e.name
		}
	}
	var id sym.ID
	var name string
	if attr {
		id = sym.AttrIntern(local)
		name = sym.Name(id)[1:]
	} else {
		id, name = sym.InternName(local)
	}
	if 2*(c.n+1) > len(c.slots) {
		c.grow()
	}
	c.insert(cachedName{name: name, hash: h, id: id, attr: attr})
	return id, name
}

// grow doubles the table, or empties it once it has nameCacheSlots slots.
func (c *nameCache) grow() {
	if len(c.slots) == nameCacheSlots {
		clear(c.slots)
		c.n = 0
		return
	}
	old := c.slots
	c.slots, c.n = make([]cachedName, 2*len(old)), 0
	for _, e := range old {
		if e.name != "" {
			c.insert(e)
		}
	}
}

// insert files a name known to be absent in the free slot its probe ends on.
func (c *nameCache) insert(e cachedName) {
	mask := len(c.slots) - 1
	i := int(e.hash) & mask
	for c.slots[i].name != "" {
		i = (i + 1) & mask
	}
	c.slots[i] = e
	c.n++
}

// node appends a zero node to the table and returns it. The table may be an
// earlier document's; ParseInto zeroed it, so a node within its capacity is
// zero already.
func (p *scanner) node() *Node {
	if len(p.nodes) < cap(p.nodes) {
		p.nodes = p.nodes[:len(p.nodes)+1]
	} else {
		p.nodes = append(p.nodes, Node{})
	}
	return &p.nodes[len(p.nodes)-1]
}

// frame is an open element, whose Node.text holds its character data so
// far, untrimmed.
type frame struct {
	id       NodeID
	children int32
	name     string // as written, prefix included: the end tag must repeat it
}

func (p *scanner) fail(msg string) error { return &parseError{offset: p.pos, msg: msg} }

func (p *scanner) unsupported(construct string) error {
	return &parseError{offset: p.pos, msg: construct, unsupported: true}
}

func (p *scanner) eof() error { return p.fail("unexpected EOF") }

// document scans the whole input.
func (p *scanner) document() error {
	s := p.src
	for p.pos < len(s) {
		if s[p.pos] != '<' {
			text, err := p.chars(len(s), -1, false)
			if err != nil {
				return err
			}
			p.addText(text)
			continue
		}
		if p.pos+1 >= len(s) {
			return p.eof()
		}
		var err error
		switch s[p.pos+1] {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.nodes) == 0 {
		return p.fail("empty document")
	}
	if len(p.stack) > 0 {
		return p.eof()
	}
	return nil
}

// addText appends character data to the innermost open element; outside
// the root element it is dropped.
func (p *scanner) addText(text string) {
	if len(p.stack) == 0 || text == "" {
		return
	}
	n := &p.nodes[p.stack[len(p.stack)-1].id]
	// White space so far is trimmed away whatever follows it.
	if strings.TrimSpace(n.text) == "" {
		n.text = text
		return
	}
	n.text += text
}

// startTag scans "<name attr='value' ...>" or its empty-element form.
func (p *scanner) startTag() error {
	p.pos++
	qname, local, err := p.qname("element")
	if err != nil {
		return err
	}
	depth := int32(len(p.stack))
	parent := NodeID(-1)
	switch {
	case depth > 0:
		top := &p.stack[depth-1]
		parent = top.id
		top.children++
	case len(p.nodes) > 0:
		return p.fail("multiple root elements")
	}
	if depth >= maxDepth {
		return p.unsupported(unsupportedDepth)
	}
	id := NodeID(len(p.nodes))
	n := p.node()
	n.ID, n.Kind, n.Parent, n.Depth = id, ElementNode, parent, depth
	n.Sym, n.Name = p.names.resolve(local, false)
	attrs := int32(0)
	s := p.src
	for {
		p.space()
		if p.pos >= len(s) {
			return p.eof()
		}
		switch s[p.pos] {
		case '/':
			if p.pos+1 >= len(s) || s[p.pos+1] != '>' {
				return p.fail("expected /> in element")
			}
			p.pos += 2
			p.close(id, attrs)
			return nil
		case '>':
			p.pos++
			p.stack = append(p.stack, frame{id: id, name: qname, children: attrs})
			p.deep = max(p.deep, len(p.stack))
			return nil
		}
		aq, alocal, err := p.qname("attribute")
		if err != nil {
			return err
		}
		p.space()
		if p.pos >= len(s) || s[p.pos] != '=' {
			return p.fail("attribute name without = in element")
		}
		p.pos++
		p.space()
		if p.pos >= len(s) || s[p.pos] != '"' && s[p.pos] != '\'' {
			return p.fail("unquoted or missing attribute value in element")
		}
		value, err := p.chars(len(s), int(s[p.pos]), false)
		if err != nil {
			return err
		}
		if alocal == "xmlns" || len(aq) > len(alocal) && aq[:len(aq)-len(alocal)-1] == "xmlns" {
			// A namespace declaration is not an attribute. A prefix bound to
			// "xmlns" would hide the attributes it qualifies from
			// encoding/xml, which this scanner does not track.
			if value == "xmlns" && alocal != "xmlns" {
				return p.unsupported(unsupportedXMLNS)
			}
			continue
		}
		aid, aname := p.names.resolve(alocal, true)
		a := p.node()
		a.ID, a.Kind, a.Parent, a.Depth = NodeID(len(p.nodes)-1), AttributeNode, id, depth+1
		a.Sym, a.Name, a.text = aid, aname, value
		attrs++
	}
}

// endTag scans "</name>" and closes the innermost open element. An end tag
// that repeats the open element's name and ends at once — nearly every one —
// is taken by comparing the name: it is the name the start tag scanned, so
// scanning it again would find the same. Any other is scanned byte by byte.
func (p *scanner) endTag() error {
	p.pos += 2
	if len(p.stack) > 0 {
		f := p.stack[len(p.stack)-1]
		if end := p.pos + len(f.name); end < len(p.src) && p.src[end] == '>' && p.src[p.pos:end] == f.name {
			p.pos = end + 1
			p.stack = p.stack[:len(p.stack)-1]
			p.close(f.id, f.children)
			return nil
		}
	}
	qname, _, err := p.qname("element")
	if err != nil {
		return err
	}
	p.space()
	if p.pos >= len(p.src) {
		return p.eof()
	}
	if p.src[p.pos] != '>' {
		return p.fail("invalid characters between </" + qname + " and >")
	}
	p.pos++
	if len(p.stack) == 0 {
		return p.fail("unexpected end element </" + qname + ">")
	}
	f := p.stack[len(p.stack)-1]
	if f.name != qname {
		return p.fail("element <" + f.name + "> closed by </" + qname + ">")
	}
	p.stack = p.stack[:len(p.stack)-1]
	p.close(f.id, f.children)
	return nil
}

// close completes an element: its trimmed text, and room in the slab for
// its children, which ParseInto fills in once every node is known.
func (p *scanner) close(id NodeID, children int32) {
	n := &p.nodes[id]
	n.text = strings.TrimSpace(n.text)
	if children == 0 {
		return
	}
	k := len(p.slab)
	if k+int(children) > cap(p.slab) {
		// Only a malformed document, about to be rejected, outgrows the
		// bound the slab is sized from.
		p.slab = make([]NodeID, 0, children)
		k = 0
	}
	p.slab = p.slab[:k+int(children)]
	n.Children = p.slab[k:k:len(p.slab)]
}

// procInst skips "<?target ...?>", checking an XML declaration's version
// and encoding as encoding/xml does.
func (p *scanner) procInst() error {
	p.pos += 2
	target, _, err := p.name("processing instruction target")
	if err != nil {
		return err
	}
	p.space()
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		p.pos = len(p.src)
		return p.eof()
	}
	if target == "xml" {
		content := p.src[p.pos : p.pos+end]
		if v := declParam("version", content); v != "" && v != "1.0" {
			return p.fail("unsupported XML version " + v)
		}
		if e := declParam("encoding", content); e != "" && !strings.EqualFold(e, "utf-8") {
			return p.fail("unsupported encoding " + e)
		}
	}
	p.pos += end + 2
	return nil
}

// declParam returns the quoted value of param= in an XML declaration, by
// encoding/xml's rule: the first occurrence followed by a quote.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		if q := s[i]; q == '"' || q == '\'' {
			j := strings.IndexByte(s[i+1:], q)
			if j < 0 {
				return ""
			}
			return s[i+1 : i+1+j]
		}
		i++
	}
	return ""
}

// bang scans a comment or a CDATA section; any other "<!" markup is
// unsupported.
func (p *scanner) bang() error {
	s := p.src
	rest := s[p.pos+2:]
	switch {
	case strings.HasPrefix(rest, "--"):
		p.pos += 4
		// The first "--" must end the comment.
		end := strings.Index(s[p.pos:], "--")
		if end < 0 || p.pos+end+2 >= len(s) {
			p.pos = len(s)
			return p.eof()
		}
		p.pos += end + 2
		if s[p.pos] != '>' {
			return p.fail(`"--" inside a comment`)
		}
		p.pos++
		return nil
	case strings.HasPrefix(rest, "[CDATA["):
		p.pos += 9
		end := strings.Index(s[p.pos:], "]]>")
		if end < 0 {
			p.pos = len(s)
			return p.fail("unexpected EOF in CDATA section")
		}
		text, err := p.chars(p.pos+end, -1, true)
		if err != nil {
			return err
		}
		p.pos += 3
		p.addText(text)
		return nil
	case rest == "" || rest[0] == '-' || rest[0] == '[':
		return p.fail("invalid <! sequence")
	}
	return p.unsupported(unsupportedDecl)
}

// space skips XML white space.
func (p *scanner) space() {
	s, i := p.src, p.pos
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	p.pos = i
}

// name scans an XML name: a run of name bytes, starting with a letter,
// '_' or ':'. It also returns the offset of the name's only colon, -1 for
// none and -2 for more than one.
func (p *scanner) name(what string) (string, int, error) {
	s := p.src
	start, i := p.pos, p.pos
	ascii, colon := true, -1
	for ; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf {
			ascii = false
		} else if !isNameByte[c] {
			break
		} else if c == ':' {
			if colon == -1 {
				colon = i - start
			} else {
				colon = -2
			}
		}
	}
	p.pos = i
	switch {
	case i == start:
		if i == len(s) {
			return "", 0, p.eof()
		}
		return "", 0, p.fail("expected " + what + " name")
	case !ascii:
		return "", 0, p.unsupported(unsupportedName)
	case !isNameStart(s[start]):
		return "", 0, p.fail("invalid XML name: " + s[start:i])
	}
	return s[start:i], colon, nil
}

// qname scans a possibly prefixed name and returns it as written and its
// local part. A colon at either end belongs to the local part; two colons
// are an error, as in encoding/xml.
func (p *scanner) qname(what string) (qname, local string, err error) {
	qname, colon, err := p.name(what)
	switch {
	case err != nil:
		return "", "", err
	case colon == -2:
		return "", "", p.fail("expected " + what + " name")
	case colon <= 0 || colon == len(qname)-1:
		return qname, qname, nil
	}
	return qname, qname[colon+1:], nil
}

func isNameStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':'
}

var isNameByte = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isNameStart(byte(c)) || '0' <= c && c <= '9' || c == '.' || c == '-'
	}
	return t
}()

// special marks the bytes character data cannot take at face value: markup,
// references, quotes (they may end an attribute value), ']' (of "]]>"), the
// CR that line-end normalisation rewrites, the C0 controls XML forbids, and
// every non-ASCII byte, which starts a rune to validate.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	for _, c := range "<&]\r\"'" {
		t[c] = true
	}
	return t
}()

// chars scans character data from p.pos and returns it with references
// decoded and line ends normalised: text content up to the next '<' (quote
// -1), a quoted attribute value, p.pos at its opening quote, or a CDATA
// section ending at limit. The result is a substring of the input unless
// something needed decoding.
func (p *scanner) chars(limit, quote int, cdata bool) (string, error) {
	s := p.src
	if quote >= 0 {
		p.pos++
	}
	start := p.pos
	decode := false
	i := p.pos
scan:
	for {
		for i < limit && !special[s[i]] {
			i++
		}
		p.pos = i // where an error is reported
		if i == limit {
			if quote >= 0 {
				return "", p.eof()
			}
			break
		}
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(s[i:limit])
			if r == utf8.RuneError && n == 1 {
				return "", p.fail("invalid UTF-8")
			}
			if !isChar(r) {
				return "", p.fail(fmt.Sprintf("illegal character code %U", r))
			}
			i += n
		case c == '\r':
			decode = true
			i++
		case int(c) == quote:
			break scan
		case c == '<' && !cdata:
			if quote >= 0 {
				return "", p.fail("unescaped < inside quoted string")
			}
			break scan
		case c == '&' && !cdata:
			_, n, err := reference(s[i:])
			if err == unsupportedSurrogate {
				return "", p.unsupported(err)
			}
			if err != "" {
				return "", p.fail(err)
			}
			decode = true
			i += n
		case c == ']' && !cdata && quote < 0 && strings.HasPrefix(s[i:], "]]>"):
			return "", p.fail("unescaped ]]> not in CDATA section")
		case c < 0x20:
			return "", p.fail(fmt.Sprintf("illegal character code %U", rune(c)))
		default: // a quote or ']' that ends nothing
			i++
		}
	}
	if quote >= 0 {
		p.pos++ // the closing quote
	}
	raw := s[start:i]
	if !decode {
		return raw, nil
	}
	return decodeChars(raw, !cdata), nil
}

// decodeChars rewrites validated character data: CR LF and lone CR become
// LF and, outside CDATA, references become the characters they name.
func decodeChars(raw string, refs bool) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\r':
			b.WriteByte('\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c == '&' && refs:
			r, n, _ := reference(raw[i:])
			b.WriteRune(r)
			i += n
		default:
			j := i + 1
			for j < len(raw) && raw[j] != '\r' && (raw[j] != '&' || !refs) {
				j++
			}
			b.WriteString(raw[i:j])
			i = j
		}
	}
	return b.String()
}

// reference decodes the entity or character reference s starts with: one
// of the five predefined entities, or &#n; / &#xh; naming an XML character.
// It returns the character, the reference's length, and a message for a
// reference that is not one.
func reference(s string) (rune, int, string) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, int64(10)
		if len(s) > 2 && s[2] == 'x' {
			i, base = 3, 16
		}
		digits := i
		var v int64
		for ; i < len(s); i++ {
			d := digitValue(s[i])
			if d >= base {
				break
			}
			if v <= utf8.MaxRune {
				v = v*base + d
			}
		}
		switch {
		case i == digits || i == len(s) || s[i] != ';' || v > utf8.MaxRune:
			return 0, 0, "invalid character reference " + s[:i]
		case 0xD800 <= v && v <= 0xDFFF:
			return 0, 0, unsupportedSurrogate
		case !isChar(rune(v)):
			return 0, 0, fmt.Sprintf("illegal character code %U", rune(v))
		}
		return rune(v), i + 1, ""
	}
	i := 1
	for i < len(s) && (s[i] >= utf8.RuneSelf || isNameByte[s[i]]) {
		i++
	}
	if i < len(s) && s[i] == ';' {
		switch s[1:i] {
		case "lt":
			return '<', i + 1, ""
		case "gt":
			return '>', i + 1, ""
		case "amp":
			return '&', i + 1, ""
		case "apos":
			return '\'', i + 1, ""
		case "quot":
			return '"', i + 1, ""
		}
	}
	return 0, 0, "invalid character entity " + s[:i]
}

// digitValue is the value of a hexadecimal digit, 16 for any other byte.
func digitValue(c byte) int64 {
	switch {
	case '0' <= c && c <= '9':
		return int64(c - '0')
	case 'a' <= c && c <= 'f':
		return int64(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int64(c-'A') + 10
	}
	return 16
}

// isChar reports whether r is an XML character (the Char production).
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
