package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/sym"
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

	// queries is indexed by QueryID; an Unregistered query leaves a nil
	// slot so ids stay stable across churn. numQueries counts live slots.
	// Tombstones cost one pointer per lifetime registration; bounding
	// memory to the live set instead would put an id map on the per-match
	// emit path. What a live query keeps is its queryRec and instances —
	// a row, never the parsed query (recBytes sums them).
	queries    []*queryRec
	numQueries int
	recBytes   int64
	// instances is indexed by instance id (the RT qid column); slots of
	// unregistered instances are nil — they left their vector groups, so
	// dead ids are never looked up during evaluation — and are handed out
	// again (freeInsts), so the table follows the peak live set, not the
	// lifetime registrations.
	instances []*instance
	freeInsts []int64

	templates    map[string]*Template
	templateList []*Template // live templates, in registration order
	// nextTemplateID allocates template ids; ids are never reused, so a
	// reclaimed template's id cannot alias a later one.
	nextTemplateID TemplateID

	// ex evaluates the templates in Stage 2 (stage2.go) and keeps its
	// scratch — the binding frame, the bindings slab and the emit buffer
	// ex.out — across documents. ex.out holds the current document's
	// matches from evalTemplates until the next document's resetEmit; the
	// processor's Matches view points into it meanwhile, and whoever reads
	// the view copies out of it: no slice handed to a caller ever aliases
	// it.
	ex cqExec
	// cache holds the Section-5 RL slices by string (view materialization
	// only), counting its hits, misses and invalidations into stats.
	cache *ViewCache

	// patterns holds the live patterns by canonical key (the normalized
	// block's xpath.NormalForm.Key); byYID is the same set by Stage-1
	// pattern id (nil for an id no live pattern holds), which is how
	// RunStage1 reaches the patterns a document triggered. patternSeq
	// numbers the patterns in registration order (patternInfo.seq).
	patterns   map[string]*patternInfo
	byYID      []*patternInfo
	patternSeq int64

	state *State

	// result is the current document's matches between one Consume and
	// the next one (Matches): its keys and buffer list are reused across
	// documents.
	result Matches

	// pre is the current document's Stage-2 inputs (prepareStage2), which
	// nothing reads once the document is evaluated: the next document's
	// are built in its storage.
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
	// insts holds the query's instance ids: one for FOLLOWED BY, two for
	// JOIN, none for a single-block query (noInstance fills the rest).
	insts [2]int64
	// single is the pattern of a single-block query (nil otherwise).
	single *patternInfo
}

const noInstance = -1

type canonResult struct {
	sig   string
	order []int
}

// instance is one orientation of one query's join: FOLLOWED BY queries have
// one instance, JOIN queries two (the second with the blocks swapped).
type instance struct {
	qid        QueryID
	op         xscl.OpKind
	swapped    bool
	tmpl       *Template
	window     int64
	windowKind xscl.WindowKind

	// group is the instance's variable-vector group in its template
	// (cqplan.go), so Unregister can leave it.
	group *vecGroup
	// left and right are the witness-extraction demands this instance
	// placed on its block patterns, released on Unregister. They are the
	// patterns' shared records (patternInfo.contribs), not copies.
	left, right *patternContrib
}

// patternContrib is one demand on a block pattern: the structural edges,
// string-value nodes and root nodes the pattern must extract from each
// witness. Instances of one template over one pattern demand the same thing,
// so a pattern keeps one record per distinct demand (patternInfo.contribs)
// and refs counts the instance sides sharing it.
type patternContrib struct {
	pi       *patternInfo
	edges    [][2]int32
	strNodes []int32
	roots    []int32

	key  string // in pi.contribs
	refs int
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
	// canonIDs[i] is the interned canonical variable of node i of the
	// normalized, fully bound pattern.
	canonIDs []int64
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

	edgeCount map[[2]int32]int
	edges     [][2]int32 // structural edges to emit, as node index pairs
	strCount  map[int32]int
	strNodes  []int32 // nodes whose string values go to RdocW
	rootCount map[int32]int
	roots     []int32 // nodes emitted to RrootW (single-node template sides)
}

// NewProcessor returns an empty processor.
func NewProcessor(cfg Config) *Processor {
	p := &Processor{
		cfg:       cfg,
		xp:        yfilter.NewEngine(),
		syms:      newSymtab(),
		templates: map[string]*Template{},
		patterns:  map[string]*patternInfo{},
		canonMemo: map[string]canonResult{},
		state:     NewState(),
	}
	p.cache = NewViewCache(&p.stats)
	return p
}

// NumTemplates returns the number of distinct query templates registered.
func (p *Processor) NumTemplates() int { return len(p.templateList) }

// Templates returns the registered templates.
func (p *Processor) Templates() []*Template { return p.templateList }

// NumQueries returns the number of live (registered, not unregistered)
// queries.
func (p *Processor) NumQueries() int { return p.numQueries }

// Stats returns the accumulated phase timings and counts, with the gauges
// read off the join state now.
func (p *Processor) Stats() Stats {
	s := p.stats
	s.StateDocs = int64(p.state.NumDocs())
	bin, doc, root := p.state.Rows()
	s.StateRbinRows, s.StateRdocRows, s.StateRrootRows = int64(bin), int64(doc), int64(root)
	s.SubscriptionBytes = p.recBytes
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
	qid := QueryID(len(p.queries))

	rec := &queryRec{
		op: q.Op, windowKind: q.WindowKind, window: q.Window,
		insts: [2]int64{noInstance, noInstance},
	}
	lf, rf := &p.reg.norm[0], &p.reg.norm[1]
	lf.Compute(q.Left)
	if q.Op == xscl.OpNone {
		pi := p.patternFor(q.Left, lf)
		pi.refs++
		pi.singles = append(pi.singles, qid)
		rec.single = pi
		p.addQuery(rec)
		return qid, nil
	}

	rf.Compute(q.Right)
	iid, err := p.registerInstance(q, qid, lf, rf, false)
	if err != nil {
		return 0, err
	}
	rec.insts[0] = iid
	if q.Op == xscl.OpJoin {
		swapped := &xscl.Query{
			Left: q.Right, Right: q.Left, Op: q.Op,
			Window: q.Window, WindowKind: q.WindowKind,
		}
		for _, pr := range q.Preds {
			swapped.Preds = append(swapped.Preds, xscl.ValueJoin{LeftVar: pr.RightVar, RightVar: pr.LeftVar})
		}
		iid2, err := p.registerInstance(swapped, qid, rf, lf, true)
		if err != nil {
			// Roll the first orientation back so the failed Register
			// has no effect.
			p.unregisterInstance(iid)
			return 0, err
		}
		rec.insts[1] = iid2
	}

	p.noteWindow(rec)
	p.addQuery(rec)
	return qid, nil
}

// addQuery records a registered query under the next id.
func (p *Processor) addQuery(rec *queryRec) {
	p.queries = append(p.queries, rec)
	p.numQueries++
	p.recBytes += rec.bytes()
}

// bytes is what the record and its instances occupy: the per-subscription
// part of the processor's memory (Stats.SubscriptionBytes).
func (rec *queryRec) bytes() int64 {
	n := int64(unsafe.Sizeof(*rec))
	for _, iid := range rec.insts {
		if iid != noInstance {
			n += int64(unsafe.Sizeof(instance{}))
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
// processor reclaims everything — join state, view cache and stats — and is
// observationally identical to a fresh one. Query ids are never reused.
//
// Like Register, Unregister must not run concurrently with Process or
// ProcessBatch (the engine facade serializes them).
func (p *Processor) Unregister(qid QueryID) error {
	if qid < 0 || int(qid) >= len(p.queries) || p.queries[qid] == nil {
		return fmt.Errorf("core: unknown query id %d", qid)
	}
	rec := p.queries[qid]
	if rec.single != nil {
		pi := rec.single
		pi.singles = removeFirst(pi.singles, qid)
		pi.refs--
		if pi.refs == 0 {
			p.removePattern(pi)
		}
	}
	for _, iid := range rec.insts {
		if iid != noInstance {
			p.unregisterInstance(iid)
		}
	}
	p.queries[qid] = nil
	p.numQueries--
	p.recBytes -= rec.bytes()
	// Re-derive the GC window maxima only when a maximum lost its last
	// holder — a full scan per removal would make bulk drains quadratic
	// in lifetime registrations.
	if rec.op != xscl.OpNone && p.releaseWindow(rec) {
		p.recomputeWindows()
	}
	if p.numQueries == 0 {
		p.reclaimAll()
	}
	return nil
}

// unregisterInstance reclaims one query instance: its vector group entry
// (its RT row), its pattern contributions, and — when it was the template's
// last instance — the template itself. It is both the Unregister work-horse
// and the rollback path of a partially failed Register.
func (p *Processor) unregisterInstance(iid int64) {
	inst := p.instances[iid]
	t := inst.tmpl
	t.removeVector(inst.group, iid)

	lpi, rpi := inst.left.pi, inst.right.pi
	lpi.release(inst.left)
	rpi.release(inst.right)
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
	p.instances[iid] = nil
	p.freeInsts = append(p.freeInsts, iid)
}

// removeTemplate reclaims a template whose last instance left.
func (p *Processor) removeTemplate(t *Template) {
	delete(p.templates, t.Sig)
	p.templateList = removeFirst(p.templateList, t)
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
}

// recomputeWindows re-derives the window maxima from the live queries, so GC
// aggressiveness after churn matches a fresh processor holding the same
// query set.
func (p *Processor) recomputeWindows() {
	p.maxFiniteWindow, p.maxFiniteHolders = 0, 0
	p.maxCountWindow, p.maxCountHolders = 0, 0
	p.infWindows, p.anyInfWindow = 0, false
	for _, rec := range p.queries {
		if rec != nil && rec.op != xscl.OpNone {
			p.noteWindow(rec)
		}
	}
}

// reclaimAll resets the processor to its initial state once the last query
// has been unregistered: join state, view cache and stats are all released,
// making the processor observationally identical to a fresh one (query and
// template ids are still never reused).
func (p *Processor) reclaimAll() {
	p.state = NewState()
	p.cache.Clear()
	p.stats = Stats{}
	p.result = Matches{}
	p.pre = stage2Shared{}
	p.ex = cqExec{}
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
// normal forms are lf and rf, and returns its instance id. All mutations
// happen after the fallible analysis steps, so a returned error implies no
// processor state changed.
func (p *Processor) registerInstance(q *xscl.Query, qid QueryID, lf, rf *xpath.NormalForm, swapped bool) (int64, error) {
	red := &p.reg.red
	if err := p.reg.full.build(q); err != nil {
		return 0, err
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
		tmpl.compile(p.cfg.ViewMaterialization)
		p.nextTemplateID++
		p.templates[sig] = tmpl
		p.templateList = append(p.templateList, tmpl)
	}
	tmpl.refs++

	// Register the two block patterns and record, per pattern, the
	// structural edges, string-value nodes and root nodes this instance
	// needs (acquired refcounted, released on Unregister). A reduced node
	// is traced to its normalized pattern node through the block's index
	// map.
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
				side.c.edges = appendNew(side.c.edges, [2]int32{normIndex(side.f, side.s, nd.Parent), normIndex(side.f, side.s, i)})
			}
		}
		if len(side.s.Nodes) == 1 {
			side.c.roots = appendNew(side.c.roots, normIndex(side.f, side.s, 0))
		}
	}
	// Value-join endpoints need string values.
	for _, e := range red.VJ {
		lc.strNodes = appendNew(lc.strNodes, normIndex(lf, &red.LeftSide, e.L))
		rc.strNodes = appendNew(rc.strNodes, normIndex(rf, &red.RightSide, e.R))
	}
	left, right := p.acquire(lc), p.acquire(rc)

	// Record the query's RT tuple — its canonical variable at each
	// template position, the pattern's interned name of the node — in its
	// vector group; the window length stays on the instance.
	nl := len(red.LeftSide.Nodes)
	iid := int64(len(p.instances))
	if n := len(p.freeInsts); n > 0 {
		iid, p.freeInsts = p.freeInsts[n-1], p.freeInsts[:n-1]
	} else {
		p.instances = append(p.instances, nil)
	}
	varIDs := resize(p.reg.varIDs, tmpl.N)
	for pos, flat := range order {
		if flat < nl {
			varIDs[pos] = int32(lpi.canonIDs[normIndex(lf, &red.LeftSide, flat)])
		} else {
			varIDs[pos] = int32(rpi.canonIDs[normIndex(rf, &red.RightSide, flat-nl)])
		}
	}
	p.reg.varIDs = varIDs
	p.instances[iid] = &instance{
		qid: qid, op: q.Op, swapped: swapped, tmpl: tmpl,
		window: q.Window, windowKind: q.WindowKind,
		group: tmpl.addVector(varIDs, iid), left: left, right: right,
	}
	return iid, nil
}

// normIndex is the index, in its block's normalized pattern, of node i of a
// join-graph side derived from the block whose normal form is f.
func normIndex(f *xpath.NormalForm, s *SideGraph, i int) int32 {
	return int32(f.Map[s.Nodes[i].PatternNode.Index])
}

// reset empties the scratch contribution for a new instance side.
func (c *patternContrib) reset(pi *patternInfo) {
	c.pi, c.edges, c.strNodes, c.roots = pi, c.edges[:0], c.strNodes[:0], c.roots[:0]
}

// appendNew appends v to s unless s holds it already: an instance side's
// demand lists are deduplicated as they are assembled.
func appendNew[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// appendContribKey appends the encoding a pattern files a demand under: the
// three lists in order, each behind its length.
func appendContribKey(b []byte, c *patternContrib) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.edges)))
	for _, e := range c.edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(e[1]))
	}
	for _, list := range [][]int32{c.strNodes, c.roots} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(list)))
		for _, n := range list {
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
		}
	}
	return b
}

// acquire takes one reference on the scratch demand's record in its pattern,
// creating the record — and folding it into the pattern's refcounted emission
// sets, where an item appearing for the first time joins the emission lists —
// when no live instance side demands the same.
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
		edges: slices.Clone(scratch.edges), strNodes: slices.Clone(scratch.strNodes), roots: slices.Clone(scratch.roots),
	}
	pi.contribs[c.key] = c
	pi.edges = countIn(pi.edgeCount, pi.edges, c.edges)
	pi.strNodes = countIn(pi.strCount, pi.strNodes, c.strNodes)
	pi.roots = countIn(pi.rootCount, pi.roots, c.roots)
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
// is preserved).
func (pi *patternInfo) release(c *patternContrib) {
	pi.refs--
	if c.refs--; c.refs > 0 {
		return
	}
	delete(pi.contribs, c.key)
	pi.edges = countOut(pi.edgeCount, pi.edges, c.edges)
	pi.strNodes = countOut(pi.strCount, pi.strNodes, c.strNodes)
	pi.roots = countOut(pi.rootCount, pi.roots, c.roots)
}

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
// and its canonical variables interned, in the pattern's pre-order.
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
		yid: yid, key: key, seq: p.patternSeq,
		canonIDs:  make([]int64, len(rep.Nodes)),
		contribs:  map[string]*patternContrib{},
		edgeCount: map[[2]int32]int{},
		strCount:  map[int32]int{},
		rootCount: map[int32]int{},
	}
	for i, name := range rep.CanonicalVars() {
		pi.canonIDs[i] = p.syms.intern(name)
	}
	p.patternSeq++
	p.patterns[key] = pi
	for int(yid) >= len(p.byYID) {
		p.byYID = append(p.byYID, nil)
	}
	p.byYID[yid] = pi
	return pi
}

// Stage1Result is an in-flight document, opaque outside the package: what
// RunStage1 hands to Consume. It carries the order-insensitive per-document
// work of Stage 1 — the current-witness relations, the single-block matches,
// and the phase timings to be accumulated by the coordinator — and depends
// only on the document and the registered patterns, never on the join state,
// which is what makes Stage 1 safe to run ahead of order in pipeline workers.
type Stage1Result struct {
	doc     *xmldoc.Document
	w       *CurrentWitness
	singles []Match

	xpath, witness, wall time.Duration
	// triggered and probes are the document's counted assembly work
	// (Stats.PatternsTriggered, Stats.WitnessProbes).
	triggered, probes int64
}

// RunStage1 performs Stage 1 for one document: shared-NFA matching, witness
// relation construction, and single-block match emission. It only reads
// registration-time structures (the shared NFA, pattern infos, query lists),
// so concurrent calls for different documents are safe as long as no
// Register or Unregister runs concurrently.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) RunStage1(stream string, d *xmldoc.Document) *Stage1Result {
	r := &Stage1Result{doc: d, w: NewCurrentWitness(d)}
	t0 := time.Now()
	res := p.xp.MatchDocument(stream, d)
	r.xpath = time.Since(t0)

	t1 := time.Now()
	// Only the patterns the document triggered are visited, in registration
	// order (which fixes the relations' row order).
	r.w.order = p.triggerOrder(r.w.order, res.Triggered())
	for _, k := range r.w.order {
		r.addWitnesses(p.byYID[yfilter.PatternID(uint32(k))], res)
	}
	r.witness = time.Since(t1)
	r.wall = time.Since(t0)
	r.triggered, r.probes = res.Work()
	// Every row is in the current-witness relations and the single-block
	// matches above, so the match result's scratch (candidate lists, NFA
	// state sets, the slab) can go back to the engine's pool here — still
	// inside the order-insensitive stage, so pipelined Stage-1 workers
	// recycle scratch without waiting on the coordinator.
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
// current-witness relations and its single-block queries' matches.
func (r *Stage1Result) addWitnesses(pi *patternInfo, res *yfilter.MatchResult) {
	d := r.doc
	// The pattern is fully bound: witness k binds pattern node i to
	// slab[k*nv+i]. The slab is the match result's scratch, so the rows are
	// written from it before the next pattern is assembled.
	slab, nw := res.Bindings(pi.yid)
	nv := len(pi.canonIDs)
	for k := 0; k < nw; k++ {
		b := slab[k*nv : (k+1)*nv]
		for _, e := range pi.edges {
			r.w.AddBin(pi.canonIDs[e[0]], pi.canonIDs[e[1]], b[e[0]], b[e[1]])
		}
		for _, n := range pi.strNodes {
			r.w.AddDoc(b[n], d.StringValue(b[n]))
		}
		for _, n := range pi.roots {
			r.w.AddRoot(pi.canonIDs[n], b[n])
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

// Consume runs the order-sensitive tail of document processing on the
// coordinator: Stage-2 template evaluation against the join state, the
// Algorithm-2 state merge, view-cache maintenance, and window GC. Results
// must be consumed in arrival order, never concurrently. The returned matches
// are the processor's own view (Matches), valid until the next call: whoever
// wants them writes them out before that.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) Consume(r *Stage1Result) *Matches {
	d, w := r.doc, r.w
	p.stats.Documents++
	p.stats.XPath += r.xpath
	p.stats.Witness += r.witness
	p.stats.Stage1Wall += r.wall
	p.stats.PatternsTriggered += r.triggered
	p.stats.WitnessProbes += r.probes

	p.resetEmit()
	var stage2 time.Duration
	if p.state.NumDocs() > 0 && w.RdocW.Len() > 0 {
		t := time.Now()
		p.evalTemplates(w, d)
		stage2 = time.Since(t)
		p.stats.Stage2Wall += stage2
	}
	// The full per-document set — single-block and Stage-2 matches alike —
	// leaves under the canonical total order, so output depends only on the
	// registered query set, never on pattern registration order. This is
	// the only sort on the path: the emit buffer's matches arrive unordered.
	out := p.collectMatches(r.singles)

	t2 := time.Now()
	slot := p.state.Merge(w, p.cfg.RetainDocuments)
	if p.cfg.ViewMaterialization {
		p.maintainCache(w, slot)
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
		if p.state.shouldGC(cutoffTS, cutoffSeq) {
			// Invalidation is scoped: only cache entries whose slices
			// reference an expired slot are dropped, before the next
			// Merge reuses the slot; surviving entries stay exact, since
			// Algorithm-5 maintenance keeps them in sync with every merge.
			expired, dropped := p.state.GC(cutoffTS, cutoffSeq)
			if len(expired) > 0 {
				p.stats.WindowGCs++
				p.stats.GCRowsDropped += int64(dropped)
				p.cache.InvalidateDocs(expired)
			}
		}
	}
	t4 := time.Now()
	p.stats.Maintain += t4.Sub(t2)
	p.stats.Matches += int64(out.Len())
	if p.cfg.OnDocument != nil {
		p.cfg.OnDocument(DocTimings{
			Stage1:  r.wall,
			Stage2:  stage2,
			Merge:   t3.Sub(t2),
			GC:      t4.Sub(t3),
			Matches: out.Len(),
		})
	}
	// The document is merged and its matches hold no witness row: the
	// witness relations' storage serves a later document.
	r.w = nil
	w.Release()
	return out
}

// Process runs the full per-document pipeline (Algorithm 1, or Algorithm 4
// when view materialization is enabled) and returns the matches the
// document triggered, in a slice the caller owns.
func (p *Processor) Process(stream string, d *xmldoc.Document) []Match {
	return p.Consume(p.RunStage1(stream, d)).Slice()
}

// ConsumeStage1 is Consume with the matches copied into a slice the caller
// owns.
func (p *Processor) ConsumeStage1(r *Stage1Result) []Match {
	return p.Consume(r).Slice()
}

// windowOK applies the Algorithm-3 window constraint for one instance and
// the previous document's record: 0 < Δ ≤ wl for FOLLOWED BY, 0 ≤ Δ ≤ wl for
// JOIN, where Δ is the timestamp difference for time windows or the
// arrival-index difference for tuple (ROWS) windows.
func (p *Processor) windowOK(inst *instance, prev *docRec, d *xmldoc.Document) bool {
	var delta int64
	if inst.windowKind == xscl.WindowCount {
		// The current document has not been merged yet; its arrival
		// index will be nextSeq.
		delta = p.state.nextSeq - prev.seq
	} else {
		delta = int64(d.Timestamp - prev.ts)
	}
	if inst.op == xscl.OpJoin {
		return 0 <= delta && delta <= inst.window
	}
	return 0 < delta && delta <= inst.window
}

// maintainCache implements Algorithm 5: fold the current document's RR
// bindings, stamped with the slot it was merged on, into the cached RL slices
// so future documents find them.
func (p *Processor) maintainCache(w *CurrentWitness, slot int32) {
	if w.rrSlices == nil {
		return
	}
	for _, row := range w.rrSlices.Rows {
		id := sym.ID(row[rrStrVal])
		slice, ok := p.cache.GetAndNote(id, slot)
		if !ok {
			continue
		}
		// Cached slices outlive the document, so this row is heap
		// allocated by Insert, never carved from the witness arena.
		slice.Insert(int64(slot), row[0], row[1], row[2], row[3], row[4])
	}
	w.rrSlices = nil
}
