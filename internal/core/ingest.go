package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/xmldoc"
)

// Continuous ingestion: Ingest generalizes the batch-scoped Stage-1/Stage-2
// overlap of ProcessBatchFunc (pipeline.go) into a persistent subsystem — a
// long-lived pool of Stage-1 workers plus one coordinator goroutine fed by a
// bounded admission queue. Callers Submit documents one at a time from any
// number of goroutines; admission order (the order Submit calls win the
// admission lock) is the serial order: Stage 1 of admitted documents runs
// concurrently in the workers while the coordinator applies Stage 2, the
// Algorithm-2 state merge, and window GC strictly in admission order.
// Match output is therefore byte-identical to calling Process once per
// document in admission order, for every Depth/Workers setting.
//
// Admission is bounded: at most Depth+1 documents may be admitted but not
// yet consumed (Depth buffered plus the one in the coordinator's hands), so
// a slow Stage 2 pushes back on publishers instead of queueing unboundedly.
//
// Registration is NOT safe concurrently with in-flight Stage-1 work (the
// workers read the shared NFA and pattern extraction structures that
// Register/Unregister mutate). Callers that mix registration with a live
// Ingest must funnel it through Barrier, which drains the pipeline and runs
// the function on the coordinator while admission is held closed — the
// engine facade routes Subscribe/Unsubscribe this way.

// ErrIngestClosed is returned by Submit, Barrier and Flush after Close.
var ErrIngestClosed = errors.New("core: ingest pipeline closed")

// IngestConfig sizes an Ingest.
type IngestConfig struct {
	// Depth bounds admission: at most Depth+1 documents may be admitted
	// ahead of the in-order Stage-2 consumption (<1 is treated as 1, which
	// still overlaps one document's Stage 1 with the previous document's
	// Stage 2).
	Depth int
	// Workers is the Stage-1 worker pool size (<1 selects Depth).
	Workers int
	// Lock, when set, is held around each document's Stage-2 consumption
	// and delivery. The engine facade passes its writer lock so a consume
	// excludes the facade's readers and synchronous writers exactly like a
	// serial Publish does.
	Lock sync.Locker
}

// Ingest is a continuous asynchronous ingest pipeline over one Processor.
// All methods are safe for concurrent use.
type Ingest struct {
	p    *Processor
	lock sync.Locker

	// admit serializes admission (and Close): the order goroutines win it
	// is the pipeline's serial document order.
	admit sync.Mutex
	//mmqjp:guardedby in.admit
	closed bool

	// coordQ carries jobs to the coordinator in admission order and its
	// capacity is the admission bound; workQ fans document jobs out to the
	// Stage-1 workers. Every document job is sent to both.
	coordQ chan *ingestJob
	workQ  chan *ingestJob
	done   chan struct{} // closed when the coordinator exits

	// stalls counts Submit calls that found the admission queue full and
	// had to block (backpressure made visible to observability).
	stalls atomic.Int64
}

type ingestJob struct {
	stream  string
	doc     *xmldoc.Document
	res     chan *Stage1Result
	deliver func(matches *Matches)

	// ctl marks a barrier job: run on the coordinator after every prior
	// job's consumption, with admission held closed by the submitter.
	ctl     func()
	ctlDone chan struct{}
}

// NewIngest starts the worker pool and coordinator for p. The caller owns
// the pipeline and must Close it to stop the goroutines. Direct Process or
// ProcessBatch calls on p are only safe while the pipeline is live if they
// are mutually excluded with the coordinator's consumption — by sharing
// IngestConfig.Lock, as the engine facade does with its writer lock —
// since both sides mutate the join state; the in-flight Stage-1 work
// itself never touches it and needs no exclusion. Without a shared lock,
// quiesce with Flush first.
func NewIngest(p *Processor, cfg IngestConfig) *Ingest {
	depth := cfg.Depth
	if depth < 1 {
		depth = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = depth
	}
	i := &Ingest{
		p:      p,
		lock:   cfg.Lock,
		coordQ: make(chan *ingestJob, depth),
		workQ:  make(chan *ingestJob, depth+1),
		done:   make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go i.worker()
	}
	go i.coordinate()
	return i
}

func (i *Ingest) worker() {
	for j := range i.workQ {
		j.res <- i.p.RunStage1(j.stream, j.doc)
	}
}

func (i *Ingest) coordinate() {
	defer close(i.done)
	for j := range i.coordQ {
		if j.ctl != nil {
			// Every prior job has been consumed and admission is held
			// closed by the barrier's submitter: no Stage-1 work is in
			// flight while ctl runs.
			j.ctl()
			close(j.ctlDone)
			continue
		}
		r := <-j.res
		if i.lock != nil {
			i.lock.Lock()
		}
		ms := i.p.Consume(r)
		if j.deliver != nil {
			j.deliver(ms)
		}
		if i.lock != nil {
			i.lock.Unlock()
		}
	}
}

// Submit admits one document. It blocks while the pipeline is at its
// admission bound (backpressure) and returns once the document is admitted;
// Stage 1 runs in the worker pool and deliver — which may be nil — is
// called on the coordinator goroutine, in admission order, after the
// document's Stage 2, state merge, and GC have completed (under
// IngestConfig.Lock when configured). The matches it receives are the
// processor's view of the document's result (Matches): deliver writes out what
// it keeps before it returns or processes anything else. Having done that it
// may call Process on the same processor (composition cascades do), but it
// must not Submit, Register, Unregister, or take the configured Lock itself.
func (i *Ingest) Submit(stream string, d *xmldoc.Document, deliver func(matches *Matches)) error {
	j := &ingestJob{stream: stream, doc: d, res: make(chan *Stage1Result, 1), deliver: deliver}
	i.admit.Lock()
	defer i.admit.Unlock()
	if i.closed {
		return ErrIngestClosed
	}
	select {
	case i.coordQ <- j:
	default:
		// The admission queue is full: this Submit stalls until the
		// coordinator frees a slot. Counted, not avoided — backpressure is
		// the pipeline's bound doing its job.
		i.stalls.Add(1)
		i.coordQ <- j
	}
	i.workQ <- j
	return nil
}

// QueueDepth reports the number of admitted-but-unconsumed documents (an
// instantaneous sample of the admission queue; for gauges).
func (i *Ingest) QueueDepth() int { return len(i.coordQ) }

// Stalls reports how many Submit calls have blocked on a full admission
// queue since the pipeline started.
func (i *Ingest) Stalls() int64 { return i.stalls.Load() }

// Barrier runs fn on the coordinator after every previously admitted
// document has been fully consumed, holding admission closed until fn
// returns — so no Stage-1 work is in flight while fn runs and no document
// admitted after the barrier is processed before it. This is the safe point
// for Register/Unregister against a live pipeline.
func (i *Ingest) Barrier(fn func()) error {
	j := &ingestJob{ctl: fn, ctlDone: make(chan struct{})}
	i.admit.Lock()
	defer i.admit.Unlock()
	if i.closed {
		return ErrIngestClosed
	}
	i.coordQ <- j
	<-j.ctlDone
	return nil
}

// Flush blocks until every document admitted before the call has been fully
// processed and delivered.
func (i *Ingest) Flush() error { return i.Barrier(func() {}) }

// Close drains every admitted document, delivers its matches, and stops the
// workers and the coordinator. Further Submit/Barrier/Flush calls return
// ErrIngestClosed. Close is idempotent and safe to call concurrently; every
// call blocks until the drain completes.
func (i *Ingest) Close() {
	i.admit.Lock()
	if !i.closed {
		i.closed = true
		close(i.workQ)
		close(i.coordQ)
	}
	i.admit.Unlock()
	<-i.done
}

// Wait blocks until the coordinator has exited (i.e. a Close elsewhere has
// drained the pipeline). It is the synchronization point for callers that
// lost a Submit/Barrier race with Close and fall back to direct calls.
func (i *Ingest) Wait() { <-i.done }
