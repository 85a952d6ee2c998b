package load

import "slices"

// The estimator. Every measured interval carries the host reference taken
// around it, and is first brought to the calm host's speed (Normalise).
// Segment j of the saturation phase holds the same documents in every repeat,
// so its normalised cost is the same in each but for what the reference did
// not see; the median over repeats sheds a burst that hit up to two repeats in
// five, and a timing metric is built from those per-segment medians. Memory
// is not a time and is the plain median over repeats.

// segStat returns, for each segment, the statistic over repeats.
func segStat(perRepeat [][]float64, stat func([]float64) float64) []float64 {
	out := make([]float64, len(perRepeat[0]))
	col := make([]float64, len(perRepeat))
	for j := range out {
		for r := range perRepeat {
			col[r] = perRepeat[r][j]
		}
		out[j] = stat(col)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Metrics are one workload's end-to-end values over its repeats.
type Metrics struct {
	SetupS      float64 // lower quartile over repeats of the normalised set-up time
	DocsPerS    float64 // saturation documents / sum of per-segment median normalised wall
	CPUMsPerDoc float64 // sum of per-segment median normalised server CPU / documents
	PeakRSSMB   float64 // median over repeats

	// Printed beside the metrics, never gated. The latencies are those of
	// the paced phase, as measured, and zero when it was left out.
	MatchP50Ms  float64 // median over segments of the minimum per-segment median latency
	MatchP99Ms  float64 // 99th percentile of all paced latencies pooled
	Samples     int     // paced latencies pooled over the repeats
	LateMeanMs  float64 // mean generator lateness, which includes the host's stalls
	LateP50Ms   float64 // median generator lateness
	KernelMS    []float64
	RefMS       []float64 // each repeat's median host reference
	RawDocsPerS []float64 // each repeat on its own, as measured, for the spread
	RawSetupS   []float64
	RawP50Ms    []float64
}

// Summarise applies the estimator to a workload's repeats.
func Summarise(reps []*Repeat, p Plan, weight float64) Metrics {
	var m Metrics
	var wall, cpu, segP50 [][]float64
	var setup, rss, pooled, late []float64
	for _, r := range reps {
		nw, nc := make([]float64, Segments), make([]float64, Segments)
		for j := range nw {
			nw[j] = Normalise(r.SatWall[j], r.SatRef[j], weight)
			nc[j] = Normalise(r.SatCPU[j], r.SatRef[j], weight)
		}
		wall, cpu = append(wall, nw), append(cpu, nc)
		setup = append(setup, Normalise(r.SetupS, r.SetupRef, weight))
		rss = append(rss, r.PeakRSSMB)
		m.KernelMS = append(m.KernelMS, r.KernelMS)
		m.RefMS = append(m.RefMS, Median(r.SatRef))
		m.RawSetupS = append(m.RawSetupS, r.SetupS)
		m.RawDocsPerS = append(m.RawDocsPerS, float64(p.Sat)/sum(r.SatWall))
		if p.Paced > 0 {
			p50 := make([]float64, Segments)
			for j := range p50 {
				p50[j] = Median(r.Latency[segStart(j, p.Paced):segStart(j+1, p.Paced)])
			}
			segP50 = append(segP50, p50)
			pooled, late = append(pooled, r.Latency...), append(late, r.Late...)
			m.RawP50Ms = append(m.RawP50Ms, Median(r.Latency)*1e3)
		}
	}
	m.SetupS = Quantile(setup, 0.25)
	m.DocsPerS = float64(p.Sat) / sum(segStat(wall, Median))
	m.CPUMsPerDoc = sum(segStat(cpu, Median)) / float64(p.Sat) * 1e3
	m.PeakRSSMB = Median(rss)
	if p.Paced > 0 {
		m.MatchP50Ms = Median(segStat(segP50, slices.Min)) * 1e3
		m.MatchP99Ms = Quantile(pooled, 0.99) * 1e3
		m.Samples = len(pooled)
		m.LateMeanMs = sum(late) / float64(len(late)) * 1e3
		m.LateP50Ms = Median(late) * 1e3
	}
	return m
}

// segStart is the first document index of segment j among n documents, the
// inverse of segOf.
func segStart(j, n int) int { return (j*n + Segments - 1) / Segments }
