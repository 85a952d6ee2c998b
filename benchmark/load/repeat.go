package load

import (
	"fmt"
	"io"
	"time"
)

// Plan is one repeat's document counts and paced arrival rate. Paced 0
// leaves the paced phase out.
type Plan struct {
	Warm, Sat, Paced int
	Rate             float64
}

// Docs is the number of documents a repeat publishes.
func (p Plan) Docs() int { return p.Warm + p.Sat + p.Paced }

// InFlight is the saturation phase's closed-loop depth: enough PUBs on the
// wire that the server never waits for the client's round trip.
const InFlight = 4

// Repeat is what one fresh server gave.
type Repeat struct {
	SetupS    float64   // spawn -> listening -> last SUB acknowledged
	SetupRef  float64   // host reference around the set-up, ms
	SatWall   []float64 // per segment, seconds
	SatCPU    []float64 // per segment, server processor seconds
	SatRef    []float64 // per segment, host reference around it, ms
	Latency   []float64 // per paced document, seconds from due to reply
	Late      []float64 // per paced document, generator lateness in seconds
	PeakRSSMB float64
	KernelMS  float64 // the arithmetic canary, timed just before the repeat

	Attempted, Failed int
	Matches           int64
	Digest            uint64
}

// RunRepeat measures one repeat: spawn a server, register, warm up, run the
// saturation and paced phases on one connection, read the peak RSS, stop the
// server. The host reference is timed before and after the set-up and each
// saturation segment, while nothing is in flight.
func RunRepeat(bin string, w Wire, p Plan, ref *Reference, logw io.Writer) (*Repeat, error) {
	ops := w.Ops
	if len(ops) != p.Docs() {
		return nil, fmt.Errorf("plan wants %d documents, script has %d", p.Docs(), len(ops))
	}
	rep := &Repeat{KernelMS: Kernel()}
	before := ref.Time()
	t0 := time.Now()
	srv, err := StartServer(bin, logw)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	c, err := Dial(srv.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Subscribe(w); err != nil {
		return nil, fmt.Errorf("SUB burst: %w", err)
	}
	rep.SetupS = time.Since(t0).Seconds()
	rep.SetupRef = (before + ref.Time()) / 2

	if err := c.Closed(ops[:p.Warm], InFlight); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	sat := ops[p.Warm : p.Warm+p.Sat]
	rep.SatWall, rep.SatCPU, rep.SatRef = make([]float64, Segments), make([]float64, Segments), make([]float64, Segments)
	before = ref.Time()
	for j := 0; j < Segments; j++ {
		t0, c0 := time.Now(), srv.CPU()
		if err := c.Closed(sat[segStart(j, p.Sat):segStart(j+1, p.Sat)], InFlight); err != nil {
			return nil, fmt.Errorf("saturation phase: %w", err)
		}
		rep.SatWall[j], rep.SatCPU[j] = time.Since(t0).Seconds(), (srv.CPU() - c0).Seconds()
		after := ref.Time()
		rep.SatRef[j] = (before + after) / 2
		before = after
	}
	if p.Paced > 0 {
		if rep.Latency, rep.Late, err = c.Paced(ops[p.Warm+p.Sat:], p.Rate); err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
	}
	rep.PeakRSSMB = srv.PeakRSSMB()
	rep.Attempted, rep.Failed = c.Attempted, c.Failed
	rep.Matches, rep.Digest = c.Matches, c.Digest
	return rep, nil
}

var kernelSink uint64

// Kernel times a fixed arithmetic loop, about 50 ms on the gate host, in
// milliseconds. It touches no memory and makes no system call; beside the
// host reference it tells a host that took processor time away (both slow
// down) from one whose memory got slower (only the reference does).
func Kernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 24_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	kernelSink = x
	return time.Since(t0).Seconds() * 1e3
}
