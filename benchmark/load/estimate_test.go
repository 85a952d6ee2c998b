package load

import (
	"math"
	"testing"
)

// synthetic builds repeats whose every segment costs base[j] seconds of wall
// and half that of server CPU, whose paced latencies are base[j] too, and
// which ran on a calm host.
func synthetic(n int, p Plan, base []float64) []*Repeat {
	reps := make([]*Repeat, n)
	for r := range reps {
		rep := &Repeat{SetupS: 0.5, SetupRef: RefCalmMS, PeakRSSMB: 80, KernelMS: 50,
			SatWall: make([]float64, Segments), SatCPU: make([]float64, Segments), SatRef: make([]float64, Segments),
			Latency: make([]float64, p.Paced), Late: make([]float64, p.Paced)}
		for j := range rep.SatWall {
			rep.SatWall[j], rep.SatCPU[j], rep.SatRef[j] = base[j], base[j]/2, RefCalmMS
		}
		for i := range rep.Latency {
			rep.Latency[i] = base[segOf(i, p.Paced)]
		}
		reps[r] = rep
	}
	return reps
}

func scale(rep *Repeat, f float64) {
	rep.SetupS *= f
	for _, xs := range [][]float64{rep.SatWall, rep.SatCPU, rep.Latency} {
		for i := range xs {
			xs[i] *= f
		}
	}
}

func TestEstimatorIgnoresOneSlowRepeatAndFollowsAUniformSlowdown(t *testing.T) {
	p := Plan{Warm: 10, Sat: 100, Paced: 50, Rate: 100}
	base := []float64{0.10, 0.12, 0.11, 0.30, 0.10, 0.09, 0.10, 0.13, 0.10, 0.11}
	const w = 0.8
	want := Summarise(synthetic(5, p, base), p, w)

	slowed := synthetic(5, p, base)
	scale(slowed[2], 3) // the host stalls for the whole of one repeat
	for j := 0; j < Segments; j += 2 {
		slowed[4].SatWall[j] *= 1.5 // and in bursts during another
	}
	got := Summarise(slowed, p, w)
	if got.DocsPerS != want.DocsPerS || got.CPUMsPerDoc != want.CPUMsPerDoc || got.MatchP50Ms != want.MatchP50Ms || got.SetupS != want.SetupS {
		t.Errorf("a slowed repeat moved the metrics: got %+v, want %+v", got, want)
	}

	const f = 1.25
	slower := synthetic(5, p, base)
	for _, rep := range slower {
		scale(rep, f)
	}
	got = Summarise(slower, p, w)
	for name, pair := range map[string][2]float64{
		"docs_per_s":     {got.DocsPerS * f, want.DocsPerS},
		"cpu_ms_per_doc": {got.CPUMsPerDoc / f, want.CPUMsPerDoc},
		"match_p50_ms":   {got.MatchP50Ms / f, want.MatchP50Ms},
		"setup_s":        {got.SetupS / f, want.SetupS},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9*pair[1] {
			t.Errorf("%s: a program %.2fx slower moved the metric to %.9g after undoing the factor, want %.9g", name, f, pair[0], pair[1])
		}
	}
}

func TestNormalisingUndoesASlowHostInProportionToTheWeight(t *testing.T) {
	p := Plan{Warm: 10, Sat: 100}
	base := []float64{0.10, 0.12, 0.11, 0.30, 0.10, 0.09, 0.10, 0.13, 0.10, 0.11}
	calm := Summarise(synthetic(5, p, base), p, 1)

	// The whole run falls into a spell in which memory-bound work, the
	// reference included, takes 1.6 times as long.
	const spell = 1.6
	slow := synthetic(5, p, base)
	for _, rep := range slow {
		scale(rep, spell)
		rep.SetupRef *= spell
		for j := range rep.SatRef {
			rep.SatRef[j] *= spell
		}
	}
	full := Summarise(slow, p, 1)
	if math.Abs(full.DocsPerS-calm.DocsPerS) > 1e-9*calm.DocsPerS || math.Abs(full.SetupS-calm.SetupS) > 1e-9 || math.Abs(full.CPUMsPerDoc-calm.CPUMsPerDoc) > 1e-9 {
		t.Errorf("weight 1: the spell moved the metrics: got %+v, want %+v", full, calm)
	}
	none := Summarise(slow, p, 0)
	if math.Abs(none.DocsPerS*spell-calm.DocsPerS) > 1e-9*calm.DocsPerS {
		t.Errorf("weight 0: docs_per_s = %v, want the measured %v", none.DocsPerS, calm.DocsPerS/spell)
	}
	half := Summarise(slow, p, 0.5)
	if want := calm.DocsPerS / spell * (1 + 0.5*(spell-1)); math.Abs(half.DocsPerS-want) > 1e-9*want {
		t.Errorf("weight 0.5: docs_per_s = %v, want %v", half.DocsPerS, want)
	}
}

func TestPeakRSSIsTheMedianOverRepeats(t *testing.T) {
	p := Plan{Sat: 100, Paced: 50, Rate: 100}
	reps := synthetic(5, p, make([]float64, Segments))
	for i, mb := range []float64{90, 70, 80, 200, 75} {
		reps[i].PeakRSSMB = mb
	}
	if got := Summarise(reps, p, 0).PeakRSSMB; got != 80 {
		t.Errorf("peak_rss_mb = %v, want the median 80", got)
	}
}

func TestSegmentsPartitionTheDocuments(t *testing.T) {
	for _, n := range []int{10, 37, 150, 900} {
		for i := 0; i < n; i++ {
			j := segOf(i, n)
			if i < segStart(j, n) || i >= segStart(j+1, n) {
				t.Fatalf("n=%d: document %d is in segment %d = [%d, %d)", n, i, j, segStart(j, n), segStart(j+1, n))
			}
		}
	}
}
