package load

import (
	"fmt"
	"runtime"
	"time"
)

// The host reference. The gate host slows memory-bound work by up to a
// factor of two for minutes at a time while arithmetic barely moves (see
// README.md): a spell covers whole runs, so no estimator inside a run can
// shed it. What does follow it is a kernel that misses the caches the way the
// server does. Reference times random look-ups in a Go map of refKeys string
// keys, on the server's processor, while the server is idle between two
// segments; the time of each measured interval is then divided by what the
// reference says the host was doing at that moment (Normalise).

const (
	refKeys   = 1_500_000 // about 150 MB of map: far more than any cache level
	refProbes = 60_000    // per timing: about 12 ms on a calm gate host

	// RefCalmMS is what one timing takes on the gate host when it is calm.
	// Normalised times are times at that host speed; on a calm host
	// normalising changes nothing.
	RefCalmMS = 12.0
)

// Reference is the kernel and the thread it runs on.
type Reference struct {
	keys []string
	m    map[string]int32
	x    uint64
	req  chan struct{}
	res  chan float64
}

var refSink int32

// NewReference builds the table and starts the kernel's thread, on the
// servers' processor when a split is in force. Building takes about a second
// and happens before anything is timed.
func NewReference() *Reference {
	r := &Reference{
		keys: make([]string, refKeys), m: make(map[string]int32, refKeys), x: 88172645463325252,
		req: make(chan struct{}), res: make(chan float64),
	}
	for i := range r.keys {
		r.keys[i] = fmt.Sprintf("val-%d-%d", i%3000, i)
		r.m[r.keys[i]] = int32(i)
	}
	ready := make(chan struct{})
	go func() {
		runtime.LockOSThread() // never unlocked: the thread dies with the goroutine
		if p := split; p != nil {
			setAffinity(0, &p.server)
		}
		close(ready)
		for range r.req {
			r.res <- r.time()
		}
	}()
	<-ready
	return r
}

func (r *Reference) time() float64 {
	t0 := time.Now()
	var s int32
	x := r.x
	for i := 0; i < refProbes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += r.m[r.keys[x%refKeys]]
	}
	r.x, refSink = x, s
	return time.Since(t0).Seconds() * 1e3
}

// Time runs the kernel once and returns its time in milliseconds.
func (r *Reference) Time() float64 {
	r.req <- struct{}{}
	return <-r.res
}

// Close stops the kernel's thread.
func (r *Reference) Close() { close(r.req) }

// Normalise turns a time measured while the reference read refMS into the
// time at the calm host's speed. weight is the share of the measured work
// that slows down with the reference, between 0 (arithmetic: none of it) and
// 1 (all of it); each workload carries its own, measured and then frozen.
func Normalise(t, refMS, weight float64) float64 {
	return t / (1 + weight*(refMS/RefCalmMS-1))
}
