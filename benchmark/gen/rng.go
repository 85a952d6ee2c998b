package gen

import "math"

// rng is a splitmix64 generator. The benchmark carries its own so that a
// seed names the same inputs under every Go release and every later edit to
// the repository's generators: golden.json depends on it.
type rng struct{ s uint64 }

func newRNG(seed int64, salt uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ salt}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every
// n the generators use.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// zipf samples 1..n with probability proportional to 1/k^theta.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), theta)
		z.cdf[k-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) sample(r *rng) int {
	u := r.float()
	for i, c := range z.cdf {
		if u <= c {
			return i + 1
		}
	}
	return len(z.cdf)
}
