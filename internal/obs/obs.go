// Package obs is a dependency-free metrics registry for the MMQJP engine
// and its servers: atomic counters, gauges and fixed-bucket histograms,
// exposable in the Prometheus text format.
//
// The package is deliberately tiny — no external client library, no
// push/pull machinery, no metric families beyond what the engine needs.
// Metrics are created once at wiring time and updated lock-free on the hot
// path (a counter increment is one atomic add; a histogram observation is
// two atomic adds plus a branch-free bucket scan). Collection walks the
// registry in registration order, so /metrics output is stable across
// scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus counter semantics;
// this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; observations above the last bound land only in
// the implicit +Inf bucket. Sum is accumulated as float64 bits under CAS.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    atomic.Uint64  // math.Float64bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			goto counted
		}
	}
	h.counts[len(h.bounds)].Add(1)
counted:
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is a bound set suitable for per-document stage timings in
// seconds: 10µs up to 10s, roughly ×4 per step.
var DurationBuckets = []float64{
	10e-6, 40e-6, 160e-6, 640e-6, 2.5e-3, 10e-3, 40e-3, 160e-3, 640e-3, 2.5, 10,
}

// metricKind tags a registered metric for the TYPE comment line.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered metric (or one labeled child of a Vec).
type metric struct {
	name   string // base name, no labels
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
	vec    *CounterVec
	gvec   *GaugeVec
	hidden bool // children of a vec render through the vec
}

// Registry holds metrics in registration order.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*metric{}} }

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time. fn
// must be safe to call concurrently with anything.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// CounterFunc registers a counter whose value is computed at scrape time —
// for cumulative quantities something else already tracks (engine stats).
// fn must be monotonically non-decreasing and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, fn: fn})
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(&metric{name: name, help: help, kind: kindHistogram, h: h})
	return h
}

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, children: map[string]*Counter{}}
	r.register(&metric{name: name, help: help, kind: kindCounter, vec: v})
	return v
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Gauge
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{label: label, children: map[string]*Gauge{}}
	r.register(&metric{name: name, help: help, kind: kindGauge, gvec: v})
	return v
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g := v.children[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[value]; g == nil {
		g = &Gauge{}
		v.children[value] = g
	}
	return g
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order. Labeled
// families render their children in sorted label order so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		if m.hidden {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, typeName(m.kind))
		switch {
		case m.c != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		case m.fn != nil:
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case m.h != nil:
			writeHistogram(w, m.name, m.h)
		case m.vec != nil:
			m.vec.mu.RLock()
			for _, lv := range sortedKeysC(m.vec.children) {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.vec.label, lv, m.vec.children[lv].Value())
			}
			m.vec.mu.RUnlock()
		case m.gvec != nil:
			m.gvec.mu.RLock()
			for _, lv := range sortedKeysG(m.gvec.children) {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.gvec.label, lv, m.gvec.children[lv].Value())
			}
			m.gvec.mu.RUnlock()
		}
	}
}

func writeHistogram(w io.Writer, name string, h *Histogram) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

func typeName(k metricKind) string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// formatFloat renders a float the way Prometheus expects: no exponent for
// ordinary magnitudes, no trailing zeros.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return strings.TrimSuffix(s, ".0")
}

func sortedKeysC(m map[string]*Counter) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysG(m map[string]*Gauge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
