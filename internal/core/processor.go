package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

// QueryID identifies a registered XSCL query.
type QueryID int64

// Match is one query result: an output tuple of RoutT that passed the
// temporal constraint (Algorithm 3). Left and Right refer to the query's own
// block order (for a swapped JOIN orientation, Left may be the newer
// document).
type Match struct {
	Query QueryID

	LeftDoc, RightDoc xmldoc.DocID
	LeftTS, RightTS   xmldoc.Timestamp

	// LeftRoot and RightRoot are the bindings of the template side roots,
	// used by the default SELECT * output construction.
	LeftRoot, RightRoot xmldoc.NodeID

	// Template and Bindings expose the full RoutT row: Bindings[p] is the
	// document node bound at template position p (positions on the
	// template's left side bind in the earlier document, right side in
	// the current document, before orientation is applied).
	Template *Template
	Bindings []xmldoc.NodeID
}

// Processor is the MMQJP Join Processor together with its Stage-1 engine.
type Processor struct {
	cfg  Config
	xp   *yfilter.Engine
	syms *symtab

	// queries holds the live queries by id, and nextQuery is the id the
	// next Register issues: ids are never reused, across a restore too
	// (RaiseNextQueryID). A live query keeps its queryRec and instances,
	// never the parsed query (recBytes sums them).
	queries   map[QueryID]*queryRec
	dropped   int // deletions from queries since it was last copied
	nextQuery QueryID
	recBytes  int64

	templates    map[string]*Template
	templateList []*Template // live templates, in registration order
	joins        joinIndex   // every template's vector groups by their value-join keys
	// keyShapes counts the live templates with a value-join key of each
	// shape (Template.shapes): the pair build keeps only the pairs of the
	// shapes counted here, and reads only the endpoint rows they take
	// (cqExec.buildPairs).
	keyShapes [numShapes]int
	// nextTemplateID allocates template ids; ids are never reused, so a
	// reclaimed template's id cannot alias a later one.
	nextTemplateID TemplateID

	// ex evaluates the templates in Stage 2 (stage2.go) and keeps its
	// scratch — the binding frame and the bindings slab — across
	// documents. It writes the document's runs into result.
	ex cqExec

	// patterns holds the live patterns by canonical key (the normalized
	// block's xpath.NormalForm.Key); byYID is the same set by Stage-1
	// pattern id (nil for an id no live pattern holds), which is how
	// RunStage1 reaches the patterns a document triggered. patternSeq
	// numbers the patterns in registration order (patternInfo.seq).
	patterns   map[string]*patternInfo
	byYID      []*patternInfo
	patternSeq int64
	// families holds the live patterns by their root's path id, in
	// registration order: the only patterns that can cover one another
	// (dormant.go). dormant counts the dormant ones.
	families map[int64][]*patternInfo
	dormant  int64

	state    *State
	departed []xmldoc.DocID // Departed

	// result is the current document's matches between one Consume and
	// the next one (Matches): its runs and heap are reused across
	// documents. consumed is the Stage-1 result whose single-block matches
	// it reads; the next Consume returns it to stage1Pool.
	result   Matches
	consumed *Stage1Result

	// pre is the current document's value-join pairs (cqExec.buildPairs),
	// which nothing reads once the document is evaluated: the next
	// document's are built in its storage.
	pre stage2Shared

	reg regScratch

	// canonMemo caches canonicalization results by the raw encoding of
	// the reduced join graph (rawKey); generated workloads repeat a handful
	// of raw shapes across hundreds of thousands of queries. Like the
	// symtab's interned variables, it is a pure memo retained across
	// Unregister: memory tracks lifetime-distinct query shapes (small by
	// the template-sharing premise), not the live query count.
	canonMemo map[string]canonResult

	// Window maxima drive GC cutoffs. The holder counts track how many
	// live join queries sit exactly at each maximum, so Unregister only
	// rescans the query list when a maximum actually retires — a bulk
	// drain of N uniform-window queries costs one rescan, not N.
	maxFiniteWindow  int64 // largest finite time window
	maxFiniteHolders int
	maxCountWindow   int64 // largest finite tuple window
	maxCountHolders  int
	infWindows       int // live queries with an unbounded window
	anyInfWindow     bool

	stats Stats
}

// queryRec is the per-query registration record: everything Unregister and
// the window bookkeeping need to undo a Register — the query's row, not its
// parse tree, which is garbage once Register returns.
type queryRec struct {
	op         xscl.OpKind
	windowKind xscl.WindowKind
	window     int64
	// insts holds the query's instances: one for FOLLOWED BY, two for
	// JOIN, none for a single-block query (nil fills the rest).
	insts [2]*instance
	// single is the pattern of a single-block query (nil otherwise).
	single *patternInfo
}

type canonResult struct {
	sig   string
	order []int
}

// instance is one orientation of one query's join: FOLLOWED BY queries have
// one instance, JOIN queries two (the second with the blocks swapped).
type instance struct {
	tmpl *Template
	// key is the instance's window and orientation, and group its
	// variable-vector group in its template (cqplan.go): the query is in
	// the group's class with that key, which Unregister leaves.
	key   windowKey
	group *vecGroup
	// left and right are the witness-extraction demands this instance
	// placed on its block patterns, released on Unregister. They are the
	// patterns' shared records (patternInfo.contribs), not copies.
	left, right *patternContrib
}

// patternContrib is one demand on a block pattern: the structural edges
// (with the roots of single-node sides, as parentless edges) and
// string-value nodes the pattern must extract from each witness. Instances
// of one template over one pattern demand the same thing, so a pattern keeps
// one record per distinct demand (patternInfo.contribs) and refs counts the
// instance sides sharing it.
//
// ids[i] is the interned class name (classNames) of node i for the nodes the
// demand keeps — its string-value nodes and their ancestors — and -1 for the
// others: the demand's rows are written under them, and its instances' RT
// tuples read them. The edge items carry the ids of their nodes.
type patternContrib struct {
	pi       *patternInfo
	edges    []binItem
	strNodes []int32
	ids      []int64

	key  string // in pi.contribs
	refs int
}

// binItem is a structural edge a pattern emits: the nodes' indexes and the
// ids their Rbin rows are written under. The root of a single-node side is
// an edge with noParent for the parent's index and id: its row is
// (noParent, class, noParent, node). One node pair can be emitted under two
// demands' ids.
type binItem struct {
	n  [2]int32
	id [2]int64
}

// patternInfo records what the Join Processor extracts from the witnesses of
// one distinct registered pattern. Each emission set is refcounted over the
// contributions of the live instances (and single queries) referencing the
// pattern, so Unregister narrows Stage-1 extraction back to exactly what the
// surviving queries need.
type patternInfo struct {
	yid yfilter.PatternID
	key string // in Processor.patterns
	// seq is the pattern's registration number: Stage 1 writes the
	// triggered patterns' rows in seq order, which fixes the witness
	// relations' row order.
	seq int64
	// pathIDs[i] is the interned step path of node i of the normalized,
	// fully bound pattern pat (the Stage-1 engine's own): its class name
	// with nothing dropped. Homomorphisms between patterns keep it, and sig
	// sets one of 64 bits per path, so a pattern whose sig is not within
	// another's cannot cover it. A dormant pattern is out of the Stage-1
	// engine: smaller live patterns write all its rows (dormant.go).
	pathIDs []int64
	pat     *xpath.Pattern
	sig     uint64
	dormant bool
	// singles lists the single-block (OpNone) queries on the pattern, which
	// fire once per witness.
	singles []QueryID

	// refs counts live instance sides and single queries; at zero the
	// pattern is dropped from Stage-1 extraction.
	refs int

	// contribs holds the distinct live demands, by their encoding
	// (appendContribKey); the emission sets below count them, not the
	// instance sides sharing them.
	contribs map[string]*patternContrib

	edgeCount map[binItem]int
	edges     []binItem // structural edges to emit to RbinW
	strCount  map[int32]int
	strNodes  []int32 // nodes whose string values go to RdocW
}

// NewProcessor returns an empty processor.
func NewProcessor(cfg Config) *Processor {
	return &Processor{
		cfg:       cfg,
		xp:        yfilter.NewEngine(),
		syms:      newSymtab(),
		queries:   map[QueryID]*queryRec{},
		templates: map[string]*Template{},
		patterns:  map[string]*patternInfo{},
		families:  map[int64][]*patternInfo{},
		canonMemo: map[string]canonResult{},
		state:     NewState(),
	}
}

// NumTemplates returns the number of distinct query templates registered.
func (p *Processor) NumTemplates() int { return len(p.templateList) }

// NumQueries returns the number of live (registered, not unregistered)
// queries.
func (p *Processor) NumQueries() int { return len(p.queries) }

// Stats returns the accumulated phase timings and counts, with the gauges
// read off the join state now.
func (p *Processor) Stats() Stats {
	s := p.stats
	s.StateDocs = int64(p.state.NumDocs())
	bin, doc, root := p.state.Rows()
	s.StateRbinRows, s.StateRdocRows, s.StateRrootRows = int64(bin), int64(doc), int64(root)
	s.StateValues = int64(p.state.NumValues())
	s.SubscriptionBytes = p.recBytes
	s.PatternsDormant = p.dormant
	return s
}

// ResetStats zeroes the accumulated phase timings and counts.
func (p *Processor) ResetStats() { p.stats = Stats{} }

// State exposes the join state (read-only use: tests, inspection).
func (p *Processor) State() *State { return p.state }

// Register adds an XSCL query and returns its id. Registration is atomic:
// when any part of it fails, already-registered instances are torn down with
// the same reclamation path Unregister uses, so a failed Register leaves the
// processor exactly as it was.
func (p *Processor) Register(q *xscl.Query) (QueryID, error) {
	qid := p.nextQuery
	if qid == math.MaxInt64 {
		return 0, errors.New("core: query ids exhausted")
	}

	rec := &queryRec{op: q.Op, windowKind: q.WindowKind, window: q.Window}
	lf, rf := &p.reg.norm[0], &p.reg.norm[1]
	lf.Compute(q.Left)
	if q.Op == xscl.OpNone {
		pi := p.patternFor(q.Left, lf)
		pi.refs++
		pi.singles = append(pi.singles, qid)
		p.setDormant(pi, false)
		rec.single = pi
		p.addQuery(qid, rec)
		return qid, nil
	}

	rf.Compute(q.Right)
	inst, err := p.registerInstance(q, qid, lf, rf, false)
	if err != nil {
		return 0, err
	}
	rec.insts[0] = inst
	if q.Op == xscl.OpJoin {
		swapped := &xscl.Query{
			Left: q.Right, Right: q.Left, Op: q.Op,
			Window: q.Window, WindowKind: q.WindowKind,
		}
		for _, pr := range q.Preds {
			swapped.Preds = append(swapped.Preds, xscl.ValueJoin{LeftVar: pr.RightVar, RightVar: pr.LeftVar})
		}
		inst2, err := p.registerInstance(swapped, qid, rf, lf, true)
		if err != nil {
			// Roll the first orientation back so the failed Register
			// has no effect.
			p.unregisterInstance(qid, inst)
			return 0, err
		}
		rec.insts[1] = inst2
	}

	p.noteWindow(rec)
	p.addQuery(qid, rec)
	return qid, nil
}

// addQuery records a registered query under qid, the next id.
func (p *Processor) addQuery(qid QueryID, rec *queryRec) {
	p.queries[qid] = rec
	p.nextQuery = qid + 1
	p.recBytes += rec.bytes()
}

// bytes is what the record and its instances occupy: the per-subscription
// part of the processor's memory (Stats.SubscriptionBytes).
func (rec *queryRec) bytes() int64 {
	n := int64(unsafe.Sizeof(*rec))
	for _, inst := range rec.insts {
		if inst != nil {
			n += int64(unsafe.Sizeof(*inst))
		}
	}
	return n
}

// noteWindow folds one join query's window into the GC maxima and holder
// counts.
func (p *Processor) noteWindow(rec *queryRec) {
	switch {
	case rec.window == xscl.WindowInf:
		p.infWindows++
		p.anyInfWindow = true
	case rec.windowKind == xscl.WindowCount:
		switch {
		case rec.window > p.maxCountWindow:
			p.maxCountWindow, p.maxCountHolders = rec.window, 1
		case rec.window == p.maxCountWindow:
			p.maxCountHolders++
		}
	default:
		switch {
		case rec.window > p.maxFiniteWindow:
			p.maxFiniteWindow, p.maxFiniteHolders = rec.window, 1
		case rec.window == p.maxFiniteWindow:
			p.maxFiniteHolders++
		}
	}
}

// releaseWindow undoes noteWindow for a removed query and reports whether a
// maximum lost its last holder, requiring a full recompute. Unbounded
// windows are counted exactly, so they never force a rescan.
func (p *Processor) releaseWindow(rec *queryRec) bool {
	switch {
	case rec.window == xscl.WindowInf:
		p.infWindows--
		p.anyInfWindow = p.infWindows > 0
	case rec.windowKind == xscl.WindowCount:
		if rec.window == p.maxCountWindow {
			p.maxCountHolders--
			return p.maxCountHolders == 0
		}
	default:
		if rec.window == p.maxFiniteWindow {
			p.maxFiniteHolders--
			return p.maxFiniteHolders == 0
		}
	}
	return false
}

// Unregister removes a registered query: its instances leave their vector
// groups, its templates' refcounts are decremented, and a template whose
// last member query leaves is reclaimed with its compiled programs. Pattern
// extraction demands are refcounted the same way, so Stage 1 stops extracting
// witness tuples no surviving query needs. When the last query leaves, the
// processor reclaims everything — join state, Stage-2 scratch and stats —
// and is observationally identical to a fresh one. Query ids are never
// reused.
//
// Like Register, Unregister must not run concurrently with RunStage1 or
// Consume (the engine facade serializes them).
func (p *Processor) Unregister(qid QueryID) error {
	rec := p.queries[qid]
	if rec == nil {
		return fmt.Errorf("core: unknown query id %d", qid)
	}
	if rec.single != nil {
		pi := rec.single
		pi.singles = removeFirst(pi.singles, qid)
		pi.refs--
		if pi.refs == 0 {
			p.removePattern(pi)
		} else if len(pi.singles) == 0 {
			p.setDormant(pi, p.coverable(pi))
		}
	}
	for _, inst := range rec.insts {
		if inst != nil {
			p.unregisterInstance(qid, inst)
		}
	}
	delete(p.queries, qid)
	if p.dropped++; p.dropped > len(p.queries) {
		// A Go map keeps its buckets, and churn grows it over the slots
		// deletions leave: a copy holds only the live queries.
		p.queries, p.dropped = maps.Clone(p.queries), 0
	}
	p.recBytes -= rec.bytes()
	// Re-derive the GC window maxima only when a maximum lost its last
	// holder — a full scan per removal would make bulk drains quadratic
	// in lifetime registrations.
	if rec.op != xscl.OpNone && p.releaseWindow(rec) {
		p.recomputeWindows()
	}
	if len(p.queries) == 0 {
		p.reclaimAll()
	}
	return nil
}

// unregisterInstance reclaims one instance of query qid: its vector group
// entry (its RT row), its pattern contributions, and — when it was the
// template's last instance — the template itself. It is both the Unregister
// work-horse and the rollback path of a partially failed Register.
func (p *Processor) unregisterInstance(qid QueryID, inst *instance) {
	t := inst.tmpl
	t.removeVector(&p.joins, inst.group, inst.key, qid)

	lpi, rpi := inst.left.pi, inst.right.pi
	p.release(inst.left)
	p.release(inst.right)
	if lpi.refs == 0 {
		p.removePattern(lpi)
	}
	if rpi != lpi && rpi.refs == 0 {
		p.removePattern(rpi)
	}

	t.refs--
	if t.refs == 0 {
		p.removeTemplate(t)
	}
}

// removeTemplate reclaims a template whose last instance left.
func (p *Processor) removeTemplate(t *Template) {
	delete(p.templates, t.Sig)
	p.templateList = removeFirst(p.templateList, t)
	p.countShapes(t, -1)
}

// countShapes adds d to the counts of template t's key shapes.
func (p *Processor) countShapes(t *Template, d int) {
	for sh := range p.keyShapes {
		if t.shapes&(1<<sh) != 0 {
			p.keyShapes[sh] += d
		}
	}
}

// removePattern drops a pattern no live query references from Stage-1
// extraction. The shared NFA keeps its states (they are shared across
// patterns and rebuilding it would stall ingestion), but the pattern is
// marked dead, so no document triggers it and candidate collection for its
// exclusive path prefixes stops. A later Register of an equal pattern
// revives it, as a new patternInfo with the next seq.
func (p *Processor) removePattern(pi *patternInfo) {
	delete(p.patterns, pi.key)
	p.byYID[pi.yid] = nil
	p.xp.SetLive(pi.yid, false)
	p.leaveFamily(pi)
}

// recomputeWindows re-derives the window maxima from the live queries, so GC
// aggressiveness after churn matches a fresh processor holding the same
// query set.
func (p *Processor) recomputeWindows() {
	p.maxFiniteWindow, p.maxFiniteHolders = 0, 0
	p.maxCountWindow, p.maxCountHolders = 0, 0
	p.infWindows, p.anyInfWindow = 0, false
	for _, rec := range p.queries { //mmqjp:unordered noteWindow takes maxima and counts, which commute
		if rec.op != xscl.OpNone {
			p.noteWindow(rec)
		}
	}
}

// reclaimAll resets the processor to its initial state once the last query
// has been unregistered: join state, Stage-2 scratch and stats are all
// released, making the processor observationally identical to a fresh one
// (query and template ids are still never reused).
func (p *Processor) reclaimAll() {
	p.state = NewState()
	p.stats = Stats{}
	p.result = Matches{}
	p.pre = stage2Shared{}
	p.ex = cqExec{}
	p.joins = joinIndex{}
}

// MustRegister is Register, panicking on error (tests, examples).
func (p *Processor) MustRegister(q *xscl.Query) QueryID {
	id, err := p.Register(q)
	if err != nil {
		panic(err)
	}
	return id
}

// regScratch is Register's working storage, reused so that a query of a known
// template allocates little beyond its own records: the blocks' normal forms,
// the join graph, its minor and memo key, the RT tuple and pattern demands.
type regScratch struct {
	norm       [2]xpath.NormalForm
	full, red  JoinGraph
	minor      minorScratch
	raw        []byte
	edges      []VJEdge
	varIDs     []int32
	contribs   [2]patternContrib
	contribKey []byte // a demand's encoding (appendContribKey)
}

// rawKey writes the raw encoding of a reduced join graph, exactly as laid
// out (no canonicalization): side sizes, parent vectors and the value-join
// edges in sorted order, "L2:-1,0,R1:-1,VJ:1-0,". Raw-equal graphs are
// trivially isomorphic with the identity mapping, so canonicalization
// results are memoized on this key (Processor.canonMemo).
func (s *regScratch) rawKey(g *JoinGraph) []byte {
	b := s.raw[:0]
	for i, side := range [2][]JGNode{g.LeftSide.Nodes, g.RightSide.Nodes} {
		b = append(strconv.AppendInt(append(b, "LR"[i]), int64(len(side)), 10), ':')
		for _, n := range side {
			b = append(strconv.AppendInt(b, int64(n.Parent), 10), ',')
		}
	}
	b = append(b, "VJ:"...)
	s.edges = append(s.edges[:0], g.VJ...)
	slices.SortFunc(s.edges, func(x, y VJEdge) int { return cmp.Or(cmp.Compare(x.L, y.L), cmp.Compare(x.R, y.R)) })
	for _, e := range s.edges {
		b = append(strconv.AppendInt(b, int64(e.L), 10), '-')
		b = append(strconv.AppendInt(b, int64(e.R), 10), ',')
	}
	s.raw = b
	return b
}

// registerInstance registers one orientation of a join query, whose blocks'
// normal forms are lf and rf, and returns the instance. All mutations
// happen after the fallible analysis steps, so a returned error implies no
// processor state changed.
func (p *Processor) registerInstance(q *xscl.Query, qid QueryID, lf, rf *xpath.NormalForm, swapped bool) (*instance, error) {
	red := &p.reg.red
	if err := p.reg.full.build(q); err != nil {
		return nil, err
	}
	p.reg.full.minorInto(red, &p.reg.minor)
	raw := p.reg.rawKey(red)
	cr, ok := p.canonMemo[string(raw)]
	if !ok {
		sig, order := Canonicalize(red)
		cr = canonResult{sig: sig, order: order}
		p.canonMemo[string(raw)] = cr
	}
	sig, order := cr.sig, cr.order

	tmpl := p.templates[sig]
	if tmpl == nil {
		tmpl = NewTemplateFromCanonical(sig, red, order)
		tmpl.ID = p.nextTemplateID
		tmpl.compile()
		p.nextTemplateID++
		p.templates[sig] = tmpl
		p.templateList = append(p.templateList, tmpl)
		p.countShapes(tmpl, 1)
	}
	tmpl.refs++

	// Register the two block patterns and record, per pattern, the
	// structural edges (a single-node side's root a parentless one) and
	// string-value nodes this instance needs (acquired refcounted, released
	// on Unregister). A reduced node is traced to its normalized pattern node
	// through the block's index map.
	lpi := p.patternFor(q.Left, lf)
	rpi := p.patternFor(q.Right, rf)
	lc, rc := &p.reg.contribs[0], &p.reg.contribs[1]
	lc.reset(lpi)
	rc.reset(rpi)
	for _, side := range [2]struct {
		c *patternContrib
		f *xpath.NormalForm
		s *SideGraph
	}{{lc, lf, &red.LeftSide}, {rc, rf, &red.RightSide}} {
		for i, nd := range side.s.Nodes {
			if nd.Parent >= 0 {
				side.c.edges = appendNew(side.c.edges, binItem{n: [2]int32{normIndex(side.f, side.s, nd.Parent), normIndex(side.f, side.s, i)}})
			}
		}
		if len(side.s.Nodes) == 1 {
			side.c.edges = appendNew(side.c.edges, binItem{n: [2]int32{noParent, normIndex(side.f, side.s, 0)}})
		}
	}
	// Value-join endpoints need string values.
	for _, e := range red.VJ {
		lc.strNodes = appendNew(lc.strNodes, normIndex(lf, &red.LeftSide, e.L))
		rc.strNodes = appendNew(rc.strNodes, normIndex(rf, &red.RightSide, e.R))
	}
	left, right := p.acquire(lc), p.acquire(rc)

	// Record the query's RT tuple — at each template position, the id the
	// demand writes the node's rows under — in its vector group, in the
	// class of its window key.
	nl := len(red.LeftSide.Nodes)
	varIDs := resize(p.reg.varIDs, tmpl.N)
	for pos, flat := range order {
		if flat < nl {
			varIDs[pos] = int32(left.ids[normIndex(lf, &red.LeftSide, flat)])
		} else {
			varIDs[pos] = int32(right.ids[normIndex(rf, &red.RightSide, flat-nl)])
		}
	}
	p.reg.varIDs = varIDs
	key := windowKey{window: q.Window, op: q.Op, kind: q.WindowKind, swapped: swapped}
	return &instance{
		tmpl: tmpl, key: key,
		group: tmpl.addVector(&p.joins, varIDs, key, qid), left: left, right: right,
	}, nil
}

// normIndex is the index, in its block's normalized pattern, of node i of a
// join-graph side derived from the block whose normal form is f.
func normIndex(f *xpath.NormalForm, s *SideGraph, i int) int32 {
	return int32(f.Map[s.Nodes[i].PatternNode.Index])
}

// reset empties the scratch contribution for a new instance side.
func (c *patternContrib) reset(pi *patternInfo) {
	c.pi, c.edges, c.strNodes = pi, c.edges[:0], c.strNodes[:0]
}

// appendNew appends v to s unless s holds it already: an instance side's
// demand lists are deduplicated as they are assembled.
func appendNew[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// appendContribKey appends the encoding a pattern files a demand under: its
// string-value nodes. They are the side's value-join nodes, and the minor
// they make fixes the rest — the edges and the names.
func appendContribKey(b []byte, c *patternContrib) []byte {
	for _, n := range c.strNodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return b
}

// acquire takes one reference on the scratch demand's record in its pattern,
// creating the record — naming the nodes it keeps (classNames), and folding
// its items, under those ids, into the pattern's refcounted emission sets,
// where an item appearing for the first time joins the emission lists — when
// no live instance side demands the same; an item new to the pattern settles
// its dormancy and that of the patterns it may cover.
func (p *Processor) acquire(scratch *patternContrib) *patternContrib {
	pi := scratch.pi
	pi.refs++
	p.reg.contribKey = appendContribKey(p.reg.contribKey[:0], scratch)
	c := pi.contribs[string(p.reg.contribKey)]
	if c != nil {
		c.refs++
		return c
	}
	c = &patternContrib{
		pi: pi, key: string(p.reg.contribKey), refs: 1,
		edges: slices.Clone(scratch.edges), strNodes: slices.Clone(scratch.strNodes),
		ids: make([]int64, len(pi.pat.Nodes)),
	}
	for i, name := range classNames(pi.pat, c.strNodes) {
		c.ids[i] = -1
		if name != "" {
			c.ids[i] = p.syms.intern(name)
		}
	}
	for i, e := range c.edges {
		c.edges[i].id = [2]int64{noParent, c.ids[e.n[1]]}
		if e.n[0] != noParent {
			c.edges[i].id[0] = c.ids[e.n[0]]
		}
	}
	pi.contribs[c.key] = c
	n := pi.items()
	pi.edges = countIn(pi.edgeCount, pi.edges, c.edges)
	pi.strNodes = countIn(pi.strCount, pi.strNodes, c.strNodes)
	if pi.items() > n {
		p.settle(pi, true)
	}
	return c
}

// countIn counts items into count and appends those counted for the first
// time to list; countOut undoes it, removing from list (order preserved)
// those whose count reaches zero.
func countIn[K comparable](count map[K]int, list, items []K) []K {
	for _, k := range items {
		if count[k]++; count[k] == 1 {
			list = append(list, k)
		}
	}
	return list
}

func countOut[K comparable](count map[K]int, list, items []K) []K {
	for _, k := range items {
		if count[k]--; count[k] == 0 {
			delete(count, k)
			list = removeFirst(list, k)
		}
	}
	return list
}

// release undoes acquire; when the record's last reference goes, an item
// whose count reaches zero leaves the emission lists (order of the survivors
// is preserved), and a pattern that lost an item settles again, before the
// caller removes it if it is left unreferenced.
func (p *Processor) release(c *patternContrib) {
	pi := c.pi
	pi.refs--
	if c.refs--; c.refs > 0 {
		return
	}
	delete(pi.contribs, c.key)
	n := pi.items()
	pi.edges = countOut(pi.edgeCount, pi.edges, c.edges)
	pi.strNodes = countOut(pi.strCount, pi.strNodes, c.strNodes)
	if pi.items() < n {
		p.settle(pi, false)
	}
}

// items counts the demand items the pattern emits.
func (pi *patternInfo) items() int { return len(pi.edges) + len(pi.strNodes) }

// removeFirst removes the first occurrence of v from s, preserving order.
func removeFirst[T comparable](s []T, v T) []T {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// patternFor returns the live pattern of a block whose normal form is f,
// registering the normalized, fully bound block with the shared XPath engine
// when no live pattern has its key. Only then is the normalized pattern built
// and its step paths interned, in the pattern's pre-order.
func (p *Processor) patternFor(block *xpath.Pattern, f *xpath.NormalForm) *patternInfo {
	if pi := p.patterns[string(f.Key)]; pi != nil {
		return pi
	}
	key := string(f.Key)
	yid := p.xp.Register(f.Pattern(block)) // its CanonicalKey is key
	// A revived pattern keeps the representative it was first registered
	// with: the same tree, so the same names node for node.
	rep := p.xp.Pattern(yid)
	pi := &patternInfo{
		yid: yid, key: key, seq: p.patternSeq, pat: rep,
		pathIDs:   make([]int64, len(rep.Nodes)),
		contribs:  map[string]*patternContrib{},
		edgeCount: map[binItem]int{},
		strCount:  map[int32]int{},
	}
	for i, name := range classNames(rep, nil) {
		pi.pathIDs[i] = p.syms.intern(name)
	}
	p.patternSeq++
	p.patterns[key] = pi
	p.joinFamily(pi)
	for int(yid) >= len(p.byYID) {
		p.byYID = append(p.byYID, nil)
	}
	p.byYID[yid] = pi
	return pi
}

// Stage1Result is an in-flight document, opaque outside the package: what
// RunStage1 hands to Consume. It carries the order-insensitive per-document
// work of Stage 1 — the document's join-state record, the single-block
// matches, and the phase timings Consume accumulates — and depends only on
// the document and the registered patterns, never on the join state, which
// is what makes Stage 1 safe to run on the publisher's goroutine, outside the
// lock that orders Consume calls.
type Stage1Result struct {
	doc *xmldoc.Document
	// rec is the document's record: its witness relations RbinW and RdocW
	// (Section 3.1), which Stage 2 reads as the current document and Merge
	// adopts as the document's rows of Rbin and Rdoc. After the merge it
	// holds the storage of the slot the document took.
	rec     docRec
	singles []Match
	// vals holds, by row, the join value of each Rdoc row and its hash:
	// Stage 1 writes the rows with no value id, and Consume resolves the
	// values against the state's dictionary (State.resolve).
	vals []rdocValue

	// nodes deduplicates the rows by node id: nodes[n] speaks for node n of
	// this document only while its gen equals gen, which reset advances, so
	// a later document finds every entry stale without a clear.
	// binNext[i] chains Rbin row i to the previous row with the same child
	// node, -1 ending the chain. None of it enters the state.
	gen     uint32
	nodes   []witnessNode
	binNext []int32
	// order is RunStage1's scratch: the triggered patterns' sort keys
	// (Processor.triggerOrder).
	order []uint64
	// sized is what the last record r sealed held, in values per relation:
	// a record that comes back with no storage (its document took a new
	// slot) is given that much in one allocation (docRec.carve).
	sized [2]int

	xpath, witness time.Duration
	// triggered and probes are the document's counted assembly work
	// (Stats.PatternsTriggered, Stats.WitnessProbes), steps its walk's memo
	// misses (Stats.NFASteps).
	triggered, probes, steps int64
}

// rdocValue is an Rdoc row's join value as Stage 1 read it — possibly a
// substring of the document's buffer — and its hash under valueSeed.
type rdocValue struct {
	s    string
	hash uint64
}

// witnessNode is what the current document's rows hold for one node: the
// newest Rbin row with it as node2 and its Rdoc row, each -1 for none.
type witnessNode struct {
	gen      uint32
	bin, doc int32
}

// stage1Pool holds consumed Stage-1 results, so a document's record, its
// dedup arrays and its single-block match buffer cost no allocation once
// grown. The record a result brings back is the storage of the slot its
// document took in the join state.
//
//mmqjp:pooled a result is put back by the Consume after the one that consumed it (Processor.consumed), when the Matches view reading its singles has expired; the state keeps the record Merge adopted and the result keeps only the storage swapped out of a freed slot, which no posting list names; newStage1 empties the record, the dedup arrays, the row values and singles and sets every other field before handing it out; Consume clears the row values' strings once it has resolved them
var stage1Pool = sync.Pool{New: func() any { return new(Stage1Result) }}

// newStage1 returns a pooled result readied for document d: an empty record
// for d, no stamped node, no single-block match.
func newStage1(d *xmldoc.Document) *Stage1Result {
	r := stage1Pool.Get().(*Stage1Result)
	r.reset(d)
	return r
}

// reset readies r for document d. Its record and dedup arrays keep their
// storage, up to recKeep values each.
func (r *Stage1Result) reset(d *xmldoc.Document) {
	r.doc, r.singles, r.vals = d, r.singles[:0], r.vals[:0]
	if r.rec.empty(); r.rec.storage() == 0 {
		r.rec.carve(r.sized)
	}
	r.rec.id, r.rec.ts = d.ID, d.Timestamp
	if len(r.nodes) > recKeep || cap(r.binNext) > recKeep {
		r.nodes, r.binNext = nil, nil
	}
	if cap(r.vals) > recKeep {
		r.vals = nil
	}
	r.binNext = r.binNext[:0]
	if r.gen++; r.gen == 0 {
		clear(r.nodes)
		r.gen = 1
	}
}

// node returns node n's entry for the current document.
func (r *Stage1Result) node(n xmldoc.NodeID) *witnessNode {
	if need := int(n) + 1; need > len(r.nodes) {
		r.nodes = slices.Grow(r.nodes, need-len(r.nodes))[:need]
	}
	e := &r.nodes[n]
	if e.gen != r.gen {
		*e = witnessNode{gen: r.gen, bin: -1, doc: -1}
	}
	return e
}

// AddBin inserts a deduplicated structural-edge binding tuple; a
// single-node side's root binds with var1 and n1 noParent.
func (r *Stage1Result) AddBin(var1, var2 int64, n1, n2 xmldoc.NodeID) {
	e := r.node(n2)
	for i := e.bin; i >= 0; i = r.binNext[i] {
		if row := r.rec.binRow(i); row[rbinVar1] == var1 && row[rbinVar2] == var2 && row[rbinNode1] == int64(n1) {
			return
		}
	}
	r.binNext = append(r.binNext, e.bin)
	e.bin = int32(len(r.rec.binVals) / rbinWidth)
	r.rec.addBin(var1, var2, int64(n1), int64(n2))
}

// AddDoc inserts a deduplicated string-value tuple for node n of the
// result's document. The value is computed — an interior element's is
// concatenated (xmldoc.Document.StringValue) — and hashed only when the row
// is new. It takes no lock: Consume resolves the value to the join state's
// id, and everything downstream (witness joins, the views, the state's
// posting lists) sees only the id.
func (r *Stage1Result) AddDoc(n xmldoc.NodeID) {
	if e := r.node(n); e.doc < 0 {
		r.insertDoc(e, n, r.doc.StringValue(n))
	}
}

// insertDoc inserts node n's row, with string value strVal, as its entry e
// records. The row's value id is Consume's to write.
func (r *Stage1Result) insertDoc(e *witnessNode, n xmldoc.NodeID, strVal string) {
	e.doc = int32(len(r.rec.rdocVals) / rdocWidth)
	r.rec.addDoc(int64(n), -1)
	r.vals = append(r.vals, rdocValue{strVal, maphash.String(valueSeed, strVal)})
}

// seal seals the record (docRec.seal) and notes its size for the next.
func (r *Stage1Result) seal() {
	r.rec.seal()
	r.sized = [2]int{len(r.rec.binVals), len(r.rec.rdocVals)}
}

// docValue returns the join value id of node n, if the document has an Rdoc
// row for it. The ids are there once Consume has resolved them.
func (r *Stage1Result) docValue(n int64) (int32, bool) {
	if n < 0 || n >= int64(len(r.nodes)) {
		return 0, false
	}
	if e := &r.nodes[n]; e.gen == r.gen && e.doc >= 0 {
		return int32(r.rec.docRow(e.doc)[rdocStrVal]), true
	}
	return 0, false
}

// RunStage1 performs Stage 1 for one document: shared-NFA matching, witness
// relation construction, and single-block match emission. It only reads
// registration-time structures (the shared NFA, pattern infos, query lists),
// so calls for different documents may run concurrently with each other and
// with Consume, as long as no Register or Unregister runs concurrently. Its
// result must be consumed before the next Register or Unregister: the
// witnesses were built against the registration set of the call.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) RunStage1(stream string, d *xmldoc.Document) *Stage1Result {
	r := newStage1(d)
	// One clock reading ends a phase and starts the next.
	t0 := time.Now()
	res := p.xp.MatchDocument(stream, d)
	t1 := time.Now()
	r.xpath = t1.Sub(t0)

	// Only the patterns the document triggered are visited, in registration
	// order (which fixes the relations' row order).
	r.order = p.triggerOrder(r.order, res.Triggered())
	for _, k := range r.order {
		r.addWitnesses(p.byYID[yfilter.PatternID(uint32(k))], res)
	}
	// The record's node indexes are built here, outside the lock Consume
	// holds: Stage 2 probes them, and the state keeps them.
	r.seal()
	r.witness = time.Since(t1)
	r.triggered, r.probes = res.Work()
	r.steps = res.Steps()
	// Every row is in the record and the single-block matches above, so
	// the match result's scratch (candidate lists, the walk's path, the slab)
	// can go back to the engine's pool here — still inside the
	// order-insensitive stage, so concurrent publishers recycle scratch
	// without waiting for their turn at Consume.
	res.Release()
	return r
}

// triggerOrder returns the triggered patterns in registration order, as keys
// seq<<32 | id in keys' storage: sorting the packed keys compares integers,
// where a comparator would look up two patterns per comparison.
func (p *Processor) triggerOrder(keys []uint64, trig []yfilter.PatternID) []uint64 {
	keys = slices.Grow(keys[:0], len(trig))
	for _, yid := range trig {
		keys = append(keys, uint64(p.byYID[yid].seq)<<32|uint64(uint32(yid)))
	}
	slices.Sort(keys)
	return keys
}

// addWitnesses writes one pattern's witnesses in the document into the
// document's record and its single-block queries' matches.
func (r *Stage1Result) addWitnesses(pi *patternInfo, res *yfilter.MatchResult) {
	d := r.doc
	// The pattern is fully bound: witness k binds pattern node i to
	// slab[k*nv+i]. The slab is the match result's scratch, so the rows are
	// written from it before the next pattern is assembled.
	slab, nw := res.Bindings(pi.yid)
	nv := len(pi.pathIDs)
	for k := 0; k < nw; k++ {
		b := slab[k*nv : (k+1)*nv]
		for _, e := range pi.edges {
			n1 := xmldoc.NodeID(noParent)
			if e.n[0] != noParent {
				n1 = b[e.n[0]]
			}
			r.AddBin(e.id[0], e.id[1], n1, b[e.n[1]])
		}
		for _, n := range pi.strNodes {
			r.AddDoc(b[n])
		}
	}
	// Single-block queries fire once per witness.
	for _, qid := range pi.singles {
		for k := 0; k < nw; k++ {
			root := slab[k*nv]
			r.singles = append(r.singles, Match{
				Query:   qid,
				LeftDoc: d.ID, RightDoc: d.ID,
				LeftTS: d.Timestamp, RightTS: d.Timestamp,
				LeftRoot: root, RightRoot: root,
			})
		}
	}
}

// Consume runs the order-sensitive tail of document processing: Stage-2
// template evaluation against the join state, the Algorithm-2 state merge
// and window GC. The order of Consume calls is the serial document order;
// they never run concurrently. The returned matches are the processor's own
// view (Matches), valid until the next call: whoever wants them writes them
// out before that. Departed lists the documents the call let go of.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) Consume(r *Stage1Result) *Matches {
	d := r.doc
	p.stats.Documents++
	p.stats.XPath += r.xpath
	p.stats.Witness += r.witness
	p.stats.Stage1Wall += r.xpath + r.witness
	p.stats.PatternsTriggered += r.triggered
	p.stats.WitnessProbes += r.probes
	p.stats.NFASteps += r.steps

	p.result.reset()
	// The document's values get the state's ids here, before Stage 2 reads
	// them and Merge posts them. Each clock reading ends one phase and
	// starts the next.
	t0 := time.Now()
	p.state.resolve(r)
	t1 := time.Now()
	p.stats.Maintain += t1.Sub(t0)
	t2 := t1
	var stage2 time.Duration
	if p.state.NumDocs() > 0 && r.rec.numDoc() > 0 {
		t2 = p.evalTemplates(r, t1)
		stage2 = t2.Sub(t1)
		p.stats.Stage2Wall += stage2
	}
	p.departed = p.departed[:0]
	if r.rec.numDoc() > 0 {
		p.state.Merge(&r.rec)
	} else {
		// Every program starts from Rdoc, so a document without a row
		// there is never a left side: it counts in the arrival index but
		// does not enter the state.
		p.state.pass(d.ID)
		p.departed = append(p.departed, d.ID)
	}
	t3 := time.Now()
	if !p.anyInfWindow && (p.maxFiniteWindow > 0 || p.maxCountWindow > 0) {
		cutoffTS := xmldoc.Timestamp(int64(math.MaxInt64))
		if p.maxFiniteWindow > 0 {
			cutoffTS = d.Timestamp - xmldoc.Timestamp(p.maxFiniteWindow)
		}
		cutoffSeq := int64(math.MaxInt64)
		if p.maxCountWindow > 0 {
			cutoffSeq = p.state.nextSeq - p.maxCountWindow
		}
		n := len(p.departed)
		var dropped int
		p.departed, dropped = p.state.GC(cutoffTS, cutoffSeq, p.departed)
		if len(p.departed) > n {
			p.stats.WindowGCs++
			p.stats.GCRowsDropped += int64(dropped)
		}
	}
	t4 := time.Now()
	p.stats.Maintain += t4.Sub(t2)
	// The full per-document set — single-block and Stage-2 matches alike —
	// leaves under the canonical total order, so output depends only on the
	// registered query set, never on pattern registration order: the runs
	// and the singles arrive unordered. The merge and the collection read
	// neither, so the sort is timed in no phase.
	out := p.result.collect(r.singles)
	p.stats.Matches += int64(out.Len())
	if p.cfg.OnDocument != nil {
		p.cfg.OnDocument(DocTimings{
			DocID:   int64(d.ID),
			Stage1:  r.xpath + r.witness,
			Stage2:  stage2,
			Merge:   t3.Sub(t2),
			GC:      t4.Sub(t3),
			Matches: out.Len(),
		})
	}
	// The matches hold no row of the document's record, which the state
	// adopted unless the document wrote no Rdoc row. They do hold
	// r.singles, until the next Consume; the result consumed before this
	// one serves a later document now.
	r.doc = nil
	prev := p.consumed
	p.consumed = r
	if prev != nil {
		if cap(prev.singles) > recKeep {
			prev.singles = nil
		}
		stage1Pool.Put(prev)
	}
	return out
}

// Process runs the full per-document pipeline (Algorithm 4) and returns the
// matches the document triggered, in a slice the caller owns.
func (p *Processor) Process(stream string, d *xmldoc.Document) []Match {
	return p.Consume(p.RunStage1(stream, d)).Slice()
}

// Departed returns the ids of the documents the last Consume let go of —
// expired, or the consumed one when it wrote no Rdoc row — which no later
// match names. The slice is valid until the next Consume.
func (p *Processor) Departed() []xmldoc.DocID { return p.departed }

// ConsumeStage1 is Consume with the matches copied into a slice the caller
// owns.
func (p *Processor) ConsumeStage1(r *Stage1Result) []Match {
	return p.Consume(r).Slice()
}

// windowOK applies the Algorithm-3 window constraint for the instances with
// window key k and the previous document's record: 0 < Δ ≤ wl for FOLLOWED
// BY, 0 ≤ Δ ≤ wl for JOIN, where Δ is the timestamp difference for time
// windows or the arrival-index difference for tuple (ROWS) windows.
func (p *Processor) windowOK(k windowKey, prev *docRec, d *xmldoc.Document) bool {
	var delta int64
	if k.kind == xscl.WindowCount {
		// The current document has not been merged yet; its arrival
		// index will be nextSeq.
		delta = p.state.nextSeq - prev.seq
	} else {
		delta = int64(d.Timestamp - prev.ts)
	}
	if k.op == xscl.OpJoin {
		return 0 <= delta && delta <= k.window
	}
	return 0 < delta && delta <= k.window
}
