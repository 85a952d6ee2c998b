// Command bench is the repository's benchmark. It builds ./cmd/mmqjp-server,
// drives it over loopback with generated workloads, checks every reply, and
// prints each metric by name with its unit; a traced in-process run
// (cmd/layers) then gives the per-layer numbers. See ../../README.md.
//
//	go run -C benchmark ./cmd/bench -seed 1                  # everything
//	go run -C benchmark ./cmd/bench -workload rss_churn -repeats 2 -trace 0
//	bash benchmark/run.sh --workload rss_window --seed 3 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/benchmark/gen"
	"repro/benchmark/load"
)

// repeats is R: fresh servers per workload. Five lets the per-segment
// minimum shed a slow spell that covers up to four of them.
const repeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contract is the part of BENCHMARK.json the program reads: the default run
// length, and each end-to-end metric's unit and regression bound.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type bench struct {
	root     string // checkout root: the directory holding BENCHMARK.json
	server   string // the built mmqjp-server
	contract contract
	seed     int64
	scale    float64 // -seconds over the contract's run_seconds
	repeats  int
	paced    bool
	keepLog  bool
	golden   map[string]goldenEntry
	update   bool
}

type goldenEntry struct {
	Seed    int64  `json:"seed"`
	Docs    int    `json:"docs"`
	Matches int64  `json:"matches"`
	Digest  string `json:"digest"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all, repeats interleaved)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer traced run only; default both")
	reps := flag.Int("repeats", repeats, "fresh servers per workload")
	paced := flag.Bool("paced", true, "run the open-loop paced phase (latency is printed, never gated)")
	keepLog := flag.Bool("keep-server-log", false, "keep each server's log under benchmark/out/")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end part twice and fail if a metric differs by more than its bound")
	update := flag.Bool("update-golden", false, "rewrite benchmark/golden.json from this run (seed 1, default length)")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *reps, *paced, *keepLog, *selfcheck, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, reps int, paced, keepLog, selfcheck, update bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	b := &bench{root: root, seed: seed, repeats: reps, paced: paced, keepLog: keepLog, update: update}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &b.contract); err != nil {
		return err
	}
	if err := readJSON(filepath.Join(root, "benchmark", "golden.json"), &b.golden); err != nil && !update {
		return err
	}
	if seconds <= 0 {
		seconds = float64(b.contract.RunSeconds)
	}
	b.scale = seconds / float64(b.contract.RunSeconds)
	specs := gen.Specs
	if workload != "" {
		s, ok := gen.Lookup(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		specs = []gen.Spec{s}
	}
	if err := os.MkdirAll(filepath.Join(root, "benchmark", "out"), 0o755); err != nil {
		return err
	}

	if b.server, err = b.build(".", "./cmd/mmqjp-server", "mmqjp-server"); err != nil {
		return err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	key := func(w, m string) string {
		if workload != "" {
			return m
		}
		return w + "/" + m
	}
	if trace != 1 {
		a, err := b.endToEnd(specs, &res)
		if err != nil {
			return err
		}
		if selfcheck {
			fmt.Println("\n== selfcheck: second set of runs of the same code ==")
			second, err := b.endToEnd(specs, &res)
			if err != nil {
				return err
			}
			if err := b.compare(specs, a, second); err != nil {
				return err
			}
		}
		for _, s := range specs {
			for name, m := range b.gated(a[s.Name]) {
				res.Metrics[key(s.Name, name)] = m
			}
		}
	}
	if trace != 0 {
		layers, err := b.build("benchmark", "./cmd/layers", "layers")
		if err != nil {
			return err
		}
		for _, s := range specs {
			layer, err := b.traced(layers, s, &res)
			if err != nil {
				return err
			}
			for _, pl := range b.contract.PerLayer {
				// A layer metric whose source a later change removed
				// reads 0 and is listed by cmd/layers as absent.
				res.Metrics[key(s.Name, pl.Name)] = metric{Value: layer[pl.Name].Value, Unit: pl.Unit}
			}
		}
	}
	if update {
		if err := writeJSON(filepath.Join(root, "benchmark", "golden.json"), b.golden); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(root, "benchmark", "out", "result.json"), res); err != nil {
		return err
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return nil
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// build compiles pkg (relative to dir, itself relative to the root) into
// .bench_build/bin and returns the binary's path.
func (b *bench) build(dir, pkg, name string) (string, error) {
	out := filepath.Join(b.root, ".bench_build", "bin", name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = filepath.Join(b.root, dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return out, nil
}

func (b *bench) plan(s gen.Spec) load.Plan {
	n := func(docs int) int { return max(load.Segments, int(math.Round(float64(docs)*b.scale))) }
	p := load.Plan{Warm: s.Warm, Sat: n(s.Sat), Rate: s.PacedRate}
	if b.paced {
		p.Paced = n(s.Paced)
	}
	return p
}

// endToEnd runs every repeat of every workload, repeats interleaved across
// workloads so a slow spell of the host cannot cover all repeats of one, and
// returns each workload's metrics. Counts and correctness go into res.
func (b *bench) endToEnd(specs []gen.Spec, res *result) (map[string]load.Metrics, error) {
	type prepared struct {
		spec gen.Spec
		plan load.Plan
		wire load.Wire
		reps []*load.Repeat
	}
	// The processors are split and the host reference is built once, and
	// only around the measured part: the builds before it and the traced
	// run after it have every processor.
	unpin, err := load.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	ref := load.NewReference()
	defer ref.Close()
	ws := make([]*prepared, len(specs))
	for i, s := range specs {
		p := b.plan(s)
		ws[i] = &prepared{spec: s, plan: p, wire: load.Render(s.Build(b.seed, p.Docs()))}
	}
	// Everything the client will hold is allocated now. Collecting here
	// leaves the next collection a heap's growth away, which the measured
	// part, allocating a reply line at a time, does not reach.
	runtime.GC()
	for r := 0; r < b.repeats; r++ {
		for _, w := range ws {
			logw := io.Discard
			if b.keepLog {
				f, err := os.Create(filepath.Join(b.root, "benchmark", "out", fmt.Sprintf("server-%s-r%d.log", w.spec.Name, r+1)))
				if err != nil {
					return nil, err
				}
				defer f.Close()
				logw = f
			}
			rep, err := load.RunRepeat(b.server, w.wire, w.plan, ref, logw)
			if err != nil {
				return nil, fmt.Errorf("%s repeat %d: %w", w.spec.Name, r+1, err)
			}
			w.reps = append(w.reps, rep)
		}
	}
	out := map[string]load.Metrics{}
	for _, w := range ws {
		m := load.Summarise(w.reps, w.plan, w.spec.HostWeight)
		out[w.spec.Name] = m
		if err := writeJSON(filepath.Join(b.root, "benchmark", "out", "repeats-"+w.spec.Name+".json"), w.reps); err != nil {
			return nil, err
		}
		for _, rep := range w.reps {
			res.Attempted += rep.Attempted
			res.Failed += rep.Failed
		}
		ok, note := b.checkOutput(w.spec, w.plan, w.reps)
		res.Correct = res.Correct && ok
		b.report(w.spec, w.plan, m, w.reps, note)
		// The generator must keep its schedule or the paced latencies
		// measure the client. The median is the average used: the mean
		// also counts the host's stalls, which the canary shows.
		if period := 1e3 / w.plan.Rate; w.plan.Paced > 0 && m.LateP50Ms > 0.05*period {
			return nil, fmt.Errorf("%s: paced generator ran late: median %.3f ms is over 5%% of the %.2f ms period", w.spec.Name, m.LateP50Ms, period)
		}
	}
	return out, nil
}

// checkOutput verifies a workload's match output: every repeat must give the
// same digest, and at seed 1 and the default length it must be the committed
// golden one.
func (b *bench) checkOutput(s gen.Spec, p load.Plan, reps []*load.Repeat) (bool, string) {
	first := reps[0]
	for i, r := range reps[1:] {
		if r.Digest != first.Digest || r.Matches != first.Matches {
			return false, fmt.Sprintf("repeat %d gave %d matches digest %016x, repeat 1 gave %d digest %016x",
				i+2, r.Matches, r.Digest, first.Matches, first.Digest)
		}
	}
	got := goldenEntry{Seed: b.seed, Docs: p.Docs(), Matches: first.Matches, Digest: fmt.Sprintf("%016x", first.Digest)}
	// One entry per script length: with and without the paced phase.
	key := fmt.Sprintf("%s/%d", s.Name, got.Docs)
	want, have := b.golden[key]
	switch {
	case b.update && b.seed == 1 && b.scale == 1:
		if b.golden == nil {
			b.golden = map[string]goldenEntry{}
		}
		b.golden[key] = got
		return true, "golden updated"
	case !have || want.Seed != got.Seed:
		return true, "repeats agree (no golden for this seed and length)"
	case want != got:
		return false, fmt.Sprintf("golden wants %d matches digest %s, got %d digest %s", want.Matches, want.Digest, got.Matches, got.Digest)
	}
	return true, "golden digest matches"
}

// gated returns the end-to-end metrics of BENCHMARK.json by name.
func (b *bench) gated(m load.Metrics) map[string]metric {
	values := map[string]float64{
		"setup_s":        m.SetupS,
		"docs_per_s":     m.DocsPerS,
		"cpu_ms_per_doc": m.CPUMsPerDoc,
		"peak_rss_mb":    m.PeakRSSMB,
	}
	out := map[string]metric{}
	for _, e := range b.contract.EndToEnd {
		out[e.Name] = metric{Value: values[e.Name], Unit: e.Unit}
	}
	return out
}

func spread(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	lo, hi := load.Quantile(xs, 0), load.Quantile(xs, 1)
	return fmt.Sprintf("[%s] range %.1f%% of median", strings.Join(parts, " "), 100*(hi-lo)/load.Median(xs))
}

func (b *bench) report(s gen.Spec, p load.Plan, m load.Metrics, reps []*load.Repeat, note string) {
	fmt.Printf("\n== %s: %d subscriptions, window %d; per repeat %d warm-up + %d saturation (closed loop, %d in flight) + %d paced (open loop, %.0f docs/s); %d repeats, seed %d ==\n",
		s.Name, s.Subs, s.Window, p.Warm, p.Sat, load.InFlight, p.Paced, p.Rate, len(reps), b.seed)
	g := b.gated(m)
	raw := map[string][]float64{"setup_s": m.RawSetupS, "docs_per_s": m.RawDocsPerS}
	for _, e := range b.contract.EndToEnd {
		fmt.Printf("  %-16s %10.4f %-7s", e.Name, g[e.Name].Value, e.Unit)
		if r, ok := raw[e.Name]; ok {
			fmt.Printf(" as measured, per repeat %s", spread(r))
		}
		fmt.Println()
	}
	failed, attempted := 0, 0
	for _, r := range reps {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	fmt.Printf("  %-16s %10.4f %-7s (%d failed of %d operations)\n", "fail_share", float64(failed)/float64(attempted), "ratio", failed, attempted)
	if p.Paced > 0 {
		// Latency at a fixed arrival rate amplifies the host's slow spells
		// two- to threefold; see README.md for why neither percentile is gated.
		fmt.Printf("  %-16s %10.4f %-7s (not gated) per repeat %s\n", "match_p50_ms", m.MatchP50Ms, "ms", spread(m.RawP50Ms))
		fmt.Printf("  %-16s %10.4f %-7s (not gated) over %d samples\n", "match_p99_ms", m.MatchP99Ms, "ms", m.Samples)
		fmt.Printf("  %-16s %10.4f %-7s median; mean %.4f ms; period %.2f ms\n", "paced_late_ms", m.LateP50Ms, "ms", m.LateMeanMs, 1e3/p.Rate)
	}
	fmt.Printf("  %-16s per repeat %s; calm host %.1f, weight %.2f\n", "host.ref_ms", spread(m.RefMS), load.RefCalmMS, s.HostWeight)
	fmt.Printf("  %-16s per repeat %s\n", "host.kernel_ms", spread(m.KernelMS))
	fmt.Printf("  output: %d matches per repeat, %s\n", reps[0].Matches, note)
}

// compare is the A/A check: two sets of runs of the same code must agree
// within each metric's bound. It prints every difference, so the bounds in
// BENCHMARK.json are evidence and not guesses.
func (b *bench) compare(specs []gen.Spec, first, second map[string]load.Metrics) error {
	fmt.Printf("\n%-12s %-16s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var over []string
	for _, s := range specs {
		f, g := b.gated(first[s.Name]), b.gated(second[s.Name])
		for _, e := range b.contract.EndToEnd {
			x, y := f[e.Name].Value, g[e.Name].Value
			d := math.Abs(y-x) / x
			fmt.Printf("%-12s %-16s %12.4f %12.4f %7.1f%% %6.0f%%\n", s.Name, e.Name, x, y, 100*d, 100*e.Bound)
			if d > e.Bound {
				over = append(over, s.Name+"/"+e.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("selfcheck: identical code differs by more than the bound on %s", strings.Join(over, ", "))
	}
	fmt.Println("selfcheck passed: every difference is within its bound")
	return nil
}

// traced runs cmd/layers for one workload, never while a measured server is
// running, and returns its per-layer metrics.
func (b *bench) traced(bin string, s gen.Spec, res *result) (map[string]metric, error) {
	docs := max(20, int(math.Round(float64(s.TraceDocs)*b.scale)))
	cmd := exec.Command(bin, "-workload", s.Name, "-seed", fmt.Sprint(b.seed), "-docs", fmt.Sprint(docs),
		"-server", b.server, "-out", filepath.Join(b.root, "benchmark", "out"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced run of %s: %w", s.Name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var layer result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &layer); err != nil {
		return nil, fmt.Errorf("traced run of %s: last line: %w", s.Name, err)
	}
	res.Attempted += layer.Attempted
	res.Failed += layer.Failed
	return layer.Metrics, nil
}
