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

	// patterns holds the live Stage-1 patterns by canonical key: the
	// normalized blocks of single-block queries and the class patterns of
	// row items (rowItem). byYID is the same set by Stage-1 pattern id (nil
	// for an id no live pattern holds), which is how RunStage1 reaches the
	// patterns a document triggered. patternSeq numbers the patterns in
	// registration order (patternInfo.seq).
	patterns   map[string]*patternInfo
	byYID      []*patternInfo
	patternSeq int64
	// demands holds the live demands by their encoding (appendDemandKey),
	// and items the live row items by their class names.
	demands map[string]*demand
	items   map[[2]int64]*rowItem

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
	// left and right are the demands this instance's blocks place on
	// Stage 1, released on Unregister. They are the processor's shared
	// records (Processor.demands), not copies.
	left, right *demand
}

// demand is what one block of a join instance asks of Stage 1: the rows of
// its side's structural edges (the root of a single-node side a parentless
// edge) and the string values of its value-join nodes. Instances whose
// blocks have one normal form and join on the same nodes demand the same
// thing, so one record serves them all and refs counts the instance sides
// sharing it.
//
// ids[i] is the interned class name (classNames) of node i of the block's
// normalized pattern for the nodes the demand keeps — its string-value nodes
// and their ancestors — and -1 for the others: its instances' RT tuples read
// them. items are the row items its edges name, each with the ends whose
// string values the demand needs.
type demand struct {
	key   string // in Processor.demands
	ids   []int64
	items []demandItem
	refs  int
}

type demandItem struct {
	it  *rowItem
	val [2]bool
}

// rowItem is one kind of row Stage 1 writes: an Rbin edge from a node of
// class id[0] to a node of class id[1], or, with id[0] noParent, the root
// of a single-node side, whose row is (noParent, class, noParent, node). Its
// pattern is the class pattern of the edge's child — the path from the block
// root to it and, unbound, the subtrees the class name says are dropped
// along that path (itemPattern) — binding the edge's nodes, so each of its
// witnesses is one row, written once whatever number of demands name the
// item. refs counts the live demands naming it, and vals[j] those of them
// that need the string value of end j (the parent, the child): an RdocW
// row.
type rowItem struct {
	id   [2]int64
	pi   *patternInfo
	refs int
	vals [2]int
}

// patternInfo is one pattern registered with the Stage-1 engine: the
// normalized, fully bound block of single-block queries, which fire once per
// witness, or the class pattern of row items, or both when the two coincide.
// It is live while it has either; Unregister drops it from Stage-1
// extraction with the last.
type patternInfo struct {
	yid yfilter.PatternID
	key string // in Processor.patterns
	// seq is the pattern's registration number: Stage 1 writes the
	// triggered patterns' rows in seq order, which fixes the witness
	// relations' row order.
	seq int64
	// nv is the number of nodes a witness binds.
	nv      int
	singles []QueryID
	items   []*rowItem
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
		demands:   map[string]*demand{},
		items:     map[[2]int64]*rowItem{},
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
	s.Stage1Items = int64(len(p.items))
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
		pi.singles = append(pi.singles, qid)
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
		p.dropUnused(pi)
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
// entry (its RT row), its demands, and — when it was the
// template's last instance — the template itself. It is both the Unregister
// work-horse and the rollback path of a partially failed Register.
func (p *Processor) unregisterInstance(qid QueryID, inst *instance) {
	t := inst.tmpl
	t.removeVector(&p.joins, inst.group, inst.key, qid)

	p.release(inst.left)
	p.release(inst.right)

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

// dropUnused drops a pattern that has lost its last single-block query and
// row item from Stage-1 extraction. The shared NFA keeps its states (they
// are shared across patterns and rebuilding it would stall ingestion), but
// the pattern is marked dead, so no document triggers it and candidate
// collection for its exclusive path prefixes stops. A later Register of an
// equal pattern revives it, as a new patternInfo with the next seq.
func (p *Processor) dropUnused(pi *patternInfo) {
	if len(pi.singles) > 0 || len(pi.items) > 0 {
		return
	}
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
// the join graph, its minor and memo key, the RT tuple and the demands.
type regScratch struct {
	norm      [2]xpath.NormalForm
	full, red JoinGraph
	minor     minorScratch
	raw       []byte
	edges     []VJEdge
	varIDs    []int32
	// dedges and strNodes are each side's demand, in its block's node
	// indexes: its edges (noParent for a single-node side's root's parent)
	// and its value-join nodes. demandKey is a demand's encoding
	// (appendDemandKey).
	dedges    [2][][2]int32
	strNodes  [2][]int32
	demandKey []byte
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

	// Each block's demand: the structural edges of its side (a single-node
	// side's root a parentless one) and its value-join nodes, acquired
	// refcounted and released on Unregister. A reduced node is traced to its
	// block's node by its pattern node.
	at := func(s *SideGraph, i int) int32 { return int32(s.Nodes[i].PatternNode.Index) }
	for side, s := range [2]*SideGraph{&red.LeftSide, &red.RightSide} {
		edges := p.reg.dedges[side][:0]
		for i, nd := range s.Nodes {
			if nd.Parent >= 0 {
				edges = appendNew(edges, [2]int32{at(s, nd.Parent), at(s, i)})
			}
		}
		if len(s.Nodes) == 1 {
			edges = append(edges, [2]int32{noParent, at(s, 0)})
		}
		p.reg.dedges[side], p.reg.strNodes[side] = edges, p.reg.strNodes[side][:0]
	}
	for _, e := range red.VJ {
		p.reg.strNodes[0] = appendNew(p.reg.strNodes[0], at(&red.LeftSide, e.L))
		p.reg.strNodes[1] = appendNew(p.reg.strNodes[1], at(&red.RightSide, e.R))
	}
	left, right := p.acquire(q.Left, lf, 0), p.acquire(q.Right, rf, 1)

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

// appendNew appends v to s unless s holds it already: an instance side's
// demand lists are deduplicated as they are assembled.
func appendNew[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// appendDemandKey appends the encoding a demand is filed under: the number
// of its string-value nodes, their indexes in the normalized block, and the
// block's normal form key, so equal blocks written apart share it. The
// value-join nodes make the minor, which fixes the rest — the edges and the
// names.
func appendDemandKey(b []byte, f *xpath.NormalForm, strNodes []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(strNodes)))
	for _, n := range strNodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Map[n]))
	}
	return append(b, f.Key...)
}

// acquire takes one reference on the demand of side side of the scratch
// (regScratch.dedges, strNodes) on block, whose normal form is f, creating
// the record when no live instance side demands the same: it names the
// nodes the demand keeps (classNames), interning the names in the
// normalized block's order, and takes a reference on the row item of each
// edge, registering the items new to the processor.
func (p *Processor) acquire(block *xpath.Pattern, f *xpath.NormalForm, side int) *demand {
	strNodes := p.reg.strNodes[side]
	p.reg.demandKey = appendDemandKey(p.reg.demandKey[:0], f, strNodes)
	if d := p.demands[string(p.reg.demandKey)]; d != nil {
		d.refs++
		return d
	}
	names := classNames(block, strNodes)
	d := &demand{key: string(p.reg.demandKey), refs: 1, ids: make([]int64, len(names))}
	byNorm := make([]string, len(names))
	for i, name := range names {
		byNorm[f.Map[i]] = name
	}
	for i, name := range byNorm {
		d.ids[i] = -1
		if name != "" {
			d.ids[i] = p.syms.intern(name)
		}
	}
	for _, e := range p.reg.dedges[side] {
		id := [2]int64{noParent, d.ids[f.Map[e[1]]]}
		if e[0] != noParent {
			id[0] = d.ids[f.Map[e[0]]]
		}
		it := p.items[id]
		if it == nil {
			it = &rowItem{id: id, pi: p.itemPatternFor(itemPattern(block, e, names))}
			it.pi.items = append(it.pi.items, it)
			p.items[id] = it
		}
		it.refs++
		di := demandItem{it: it, val: [2]bool{e[0] != noParent && slices.Contains(strNodes, e[0]), slices.Contains(strNodes, e[1])}}
		for j, v := range di.val {
			if v {
				it.vals[j]++
			}
		}
		d.items = append(d.items, di)
	}
	p.demands[d.key] = d
	return d
}

// release undoes acquire. When the demand's last reference goes, it lets go
// of its items, and an item no live demand names leaves its pattern, which
// leaves Stage 1 with its last item or single-block query.
func (p *Processor) release(d *demand) {
	if d.refs--; d.refs > 0 {
		return
	}
	delete(p.demands, d.key)
	for _, di := range d.items {
		it := di.it
		for j, v := range di.val {
			if v {
				it.vals[j]--
			}
		}
		if it.refs--; it.refs == 0 {
			delete(p.items, it.id)
			it.pi.items = removeFirst(it.pi.items, it)
			p.dropUnused(it.pi)
		}
	}
}

// itemPattern builds the class pattern of edge e's child in block, whose
// nodes a demand names with names ("" for a node it drops): the path from
// the block's root to the child and, at every node on it, the subtrees the
// demand drops there, unbound. It binds the edge's nodes, the parent first
// (none for a parentless edge), so a witness is one row. The child's class
// name spells exactly this pattern, which is why one pattern serves every
// demand that names the item: its witnesses contain every demand's
// projections of its block's witnesses, and a template row built from item
// rows still extends to a block witness (DESIGN.md, "Stage 1 writes each
// row once").
func itemPattern(block *xpath.Pattern, e [2]int32, names []string) *xpath.Pattern {
	var path []int32
	for n := e[1]; n >= 0; n = int32(block.Nodes[n].ParentIndex) {
		path = append(path, n)
	}
	var copyNode func(n *xpath.PatternNode, depth int) *xpath.PatternNode
	copyNode = func(n *xpath.PatternNode, depth int) *xpath.PatternNode {
		c := &xpath.PatternNode{Axis: n.Axis, Name: n.Name, IsAttr: n.IsAttr}
		onPath := depth >= 0
		if onPath && (int32(n.Index) == e[0] || int32(n.Index) == e[1]) {
			c.Var = "$" + strconv.Itoa(n.Index)
		}
		for _, k := range n.Children {
			switch {
			case names[k.Index] == "" || !onPath:
				c.Children = append(c.Children, copyNode(k, -1))
			case depth > 0 && int32(k.Index) == path[depth-1]:
				c.Children = append(c.Children, copyNode(k, depth-1))
			}
		}
		return c
	}
	return xpath.NewPattern(block.Stream, copyNode(block.Root, len(path)-1))
}

// removeFirst removes the first occurrence of v from s, preserving order.
func removeFirst[T comparable](s []T, v T) []T {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// patternFor returns the live pattern of a single-block query's block, whose
// normal form is f, registering the normalized, fully bound block with the
// shared XPath engine when no live pattern has its key. Only then is the
// normalized pattern built.
func (p *Processor) patternFor(block *xpath.Pattern, f *xpath.NormalForm) *patternInfo {
	if pi := p.patterns[string(f.Key)]; pi != nil {
		return pi
	}
	return p.addPattern(f.Pattern(block), string(f.Key))
}

// itemPatternFor returns the live pattern equal to a row item's class
// pattern pat, registering pat when there is none.
func (p *Processor) itemPatternFor(pat *xpath.Pattern) *patternInfo {
	key := pat.CanonicalKey()
	if pi := p.patterns[key]; pi != nil {
		return pi
	}
	return p.addPattern(pat, key)
}

// addPattern registers pat, whose canonical key is key, with the shared
// XPath engine. A revived pattern keeps the representative it was first
// registered with, which binds the same nodes in the same order.
func (p *Processor) addPattern(pat *xpath.Pattern, key string) *patternInfo {
	yid := p.xp.Register(pat)
	pi := &patternInfo{yid: yid, key: key, seq: p.patternSeq, nv: len(p.xp.Pattern(yid).VarNodes)}
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

	// nodes stamps the nodes whose RdocW row the document has: nodes[n] ==
	// gen, which reset advances, so a later document finds every stamp
	// stale without a clear. It does not enter the state.
	gen   uint32
	nodes []uint32
	// order is RunStage1's scratch: the triggered patterns' sort keys
	// (Processor.triggerOrder).
	order []uint64
	// keepRec follows the records r sealed, a tracker a relation; the
	// others follow the stamps, the row values and the singles.
	keepRec                          [2]retention
	keepNodes, keepVals, keepSingles retention

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

// stage1Pool holds consumed Stage-1 results, so a document's record, its
// node stamps and its single-block match buffer cost no allocation once
// grown. The record a result brings back is the storage of the slot its
// document took in the join state.
//
//mmqjp:pooled a result is put back by the Consume after the one that consumed it (Processor.consumed), when the Matches view reading its singles has expired; the state keeps the record Merge adopted and the result keeps only the storage swapped out of a freed slot, which no posting list names; newStage1 empties the record, the node stamps, the row values and singles, dropping the storage their trackers no longer keep, and sets every other field before handing it out; the trackers are the result's own, so the goroutines running Stage 1 share none; Consume clears the row values' strings once it has resolved them
var stage1Pool = sync.Pool{New: func() any { return new(Stage1Result) }}

// newStage1 returns a pooled result readied for document d: an empty record
// for d, no stamped node, no single-block match.
func newStage1(d *xmldoc.Document) *Stage1Result {
	r := stage1Pool.Get().(*Stage1Result)
	r.reset(d)
	return r
}

// reset readies r for document d, keeping storage as far as its trackers do
// (retention). The stamps past the length are earlier documents', so stale.
func (r *Stage1Result) reset(d *xmldoc.Document) {
	r.doc, r.singles = d, reuse(&r.keepSingles, r.singles)
	// A record back with no storage (its document took a new slot) gets the
	// last one's size in one allocation; a relation past its part grows alone.
	if r.rec.empty(&r.keepRec); r.rec.storage() == 0 {
		if n, total := r.keepRec[0].last, r.keepRec[0].last+r.keepRec[1].last; total > 0 {
			buf := make([]int64, total)
			r.rec.binVals, r.rec.rdocVals = buf[:0:n], buf[n:n:total]
		}
	}
	r.rec.id, r.rec.ts = d.ID, d.Timestamp
	r.nodes, r.vals = reuse(&r.keepNodes, r.nodes), reuse(&r.keepVals, r.vals)
	if r.gen++; r.gen == 0 {
		clear(r.nodes[:cap(r.nodes)])
		r.gen = 1
	}
}

// AddDoc inserts node n's string-value row unless the document has it. The
// value is computed — an interior element's is concatenated
// (xmldoc.Document.StringValue) — and hashed only when the row is new. It
// takes no lock: Consume resolves the value to the join state's id, and
// everything downstream (witness joins, the pairs, the state's posting
// lists) sees only the id.
func (r *Stage1Result) AddDoc(n xmldoc.NodeID) {
	if need := int(n) + 1; need > len(r.nodes) {
		r.nodes = slices.Grow(r.nodes, need-len(r.nodes))[:need]
	}
	if r.nodes[n] != r.gen {
		r.nodes[n] = r.gen
		r.insertDoc(n, r.doc.StringValue(n))
	}
}

// insertDoc appends node n's row, with string value strVal. The row's value
// id is Consume's to write.
func (r *Stage1Result) insertDoc(n xmldoc.NodeID, strVal string) {
	r.rec.addDoc(int64(n), -1)
	r.vals = append(r.vals, rdocValue{strVal, maphash.String(valueSeed, strVal)})
}

// seal seals the record (docRec.seal) and notes its size.
func (r *Stage1Result) seal() {
	r.rec.seal()
	r.keepRec[0].note(len(r.rec.binVals))
	r.keepRec[1].note(len(r.rec.rdocVals))
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
// document's record — a row per witness for each of its row items, with the
// string values the item's demands need — and its single-block queries'
// matches. No two items write the same row, and an item's witnesses are
// distinct, so no row is written twice. A pattern with no row item serves
// single-block queries only, which read of a witness its root alone: its
// witnesses are counted per root, not built.
func (r *Stage1Result) addWitnesses(pi *patternInfo, res *yfilter.MatchResult) {
	if len(pi.items) == 0 {
		roots, counts := res.RootCounts(pi.yid)
		for _, qid := range pi.singles {
			for k, root := range roots {
				r.addSingle(qid, root, counts[k])
			}
		}
		return
	}
	// Witness k binds the pattern's bound nodes, in pre-order, to
	// slab[k*nv:]: an item's parent before its child. The slab is the match
	// result's scratch, so the rows are written from it before the next
	// pattern is assembled.
	slab, nw := res.Bindings(pi.yid)
	nv := pi.nv
	for _, it := range pi.items {
		for k := 0; k < nw; k++ {
			b := slab[k*nv : (k+1)*nv]
			n1, n2 := xmldoc.NodeID(noParent), b[0]
			if it.id[0] != noParent {
				n1, n2 = b[0], b[1]
			}
			r.rec.addBin(it.id[0], it.id[1], int64(n1), int64(n2))
			if it.vals[0] > 0 {
				r.AddDoc(n1)
			}
			if it.vals[1] > 0 {
				r.AddDoc(n2)
			}
		}
	}
	// Single-block queries fire once per witness.
	for _, qid := range pi.singles {
		for k := 0; k < nw; k++ {
			r.addSingle(qid, slab[k*nv], 1)
		}
	}
}

// addSingle appends n matches of single-block query qid at root.
func (r *Stage1Result) addSingle(qid QueryID, root xmldoc.NodeID, n int64) {
	d := r.doc
	m := Match{
		Query:   qid,
		LeftDoc: d.ID, RightDoc: d.ID,
		LeftTS: d.Timestamp, RightTS: d.Timestamp,
		LeftRoot: root, RightRoot: root,
	}
	for range n {
		r.singles = append(r.singles, m)
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
