package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qaoaml/internal/telemetry"
)

// The host clock corrects timings for the speed of the machine at the
// moment they were taken. This benchmark runs on a few cores of a shared
// host whose speed flips between two modes, about 1.7× apart, for
// seconds to minutes at a time (a busy hyperthread sibling): the same op
// list then reads 105 or 190 solves/s depending on when it ran, and no
// statistic over one run can tell a slow program from a slow minute.
//
// So the goroutines doing the work also run, every few milliseconds, a
// small fixed calibration kernel that belongs to the benchmark and calls
// no program code, and time it. The ratio of calRefNs to those samples
// is the host's speed at that instant, relative to the reference host at
// rest; integrated over a timed interval it gives the interval's length
// in reference-speed seconds. setup_s and solves_per_s are reported in
// those seconds (the wall-clock values are printed beside them as
// setup_raw_s and solves_per_s_raw). Measured on paper_n8 over two
// minutes of a flipping host: raw rates 106–191 solves/s, corrected
// rates within ±4 % of each other.
//
// The correction cannot flatter a change to the program: the kernel is
// the same on both sides of a comparison, so a program that does the
// same work in fewer host cycles reads faster by exactly that share.
const (
	calEvery  = 4 * time.Millisecond  // at most one sample per this long, over all goroutines
	calBucket = 50 * time.Millisecond // resolution of the speed timeline
	calRounds = 14                    // butterfly sweeps per kernel run (≈ 30 µs)
	// calRefNs is one kernel run on the reference host (2.1 GHz Xeon,
	// Go 1.24) at rest: the low mode of ten thousand samples. It only
	// scales the corrected values; a comparison of two commits on one
	// host does not depend on it.
	calRefNs = 27000.0
)

// calKernel is the calibration work: calRounds RX-like butterfly sweeps
// over a 256-amplitude state on the caller's stack — the shape of the
// program's small-n inner loop, cache-resident, allocation-free,
// reentrant. It returns its own duration.
func calKernel() time.Duration {
	var v [256]complex128
	for i := range v {
		v[i] = complex(1.0/16, 0)
	}
	c, s := math.Cos(0.3), math.Sin(0.3)
	t0 := time.Now()
	for r := 0; r < calRounds; r++ {
		for q := 0; q < 8; q++ {
			st := 1 << q
			for b := 0; b < len(v); b += 2 * st {
				for i := b; i < b+st; i++ {
					a0, a1 := v[i], v[i+st]
					v[i] = complex(c*real(a0)+s*imag(a1), c*imag(a0)-s*real(a1))
					v[i+st] = complex(c*real(a1)+s*imag(a0), c*imag(a1)-s*real(a0))
				}
			}
		}
	}
	d := time.Since(t0)
	calSink.Store(math.Float64bits(real(v[0]))) // keeps the sweeps live
	return d
}

var calSink atomic.Uint64

type hostClock struct {
	epoch time.Time
	last  atomic.Int64 // offset from epoch of the latest sample, ns

	mu sync.Mutex
	at []time.Duration // offset from epoch
	ns []float64
}

// clock is the process's one host clock: every timed interval of every
// workload reads the same timeline.
var clock = &hostClock{epoch: time.Now()}

// tick takes a sample if the latest one is older than calEvery. It is
// what work loops call at op boundaries, and costs one time.Now when no
// sample is due.
func (h *hostClock) tick() {
	now := int64(time.Since(h.epoch))
	last := h.last.Load()
	if now-last < int64(calEvery) || !h.last.CompareAndSwap(last, now) {
		return
	}
	h.sample()
}

// sample runs the kernel three times and records the median: one run
// caught by an interrupt is dropped, a slow host mode slows all three.
func (h *hostClock) sample() {
	a, b, c := calKernel(), calKernel(), calKernel()
	med := max(min(a, b), min(max(a, b), c))
	at := time.Since(h.epoch)
	h.last.Store(int64(at))
	h.mu.Lock()
	h.at = append(h.at, at)
	h.ns = append(h.ns, float64(med))
	h.mu.Unlock()
}

// refSeconds is the length of [start, end] in reference-speed seconds:
// the integral of calRefNs ÷ (kernel time) over the interval, on a
// timeline of calBucket steps. A bucket's kernel time is the median of
// its samples; a bucket without samples (a client blocked in a long
// request) takes the time-weighted mean of its nearest neighbours.
// Callers sample at start and end, so the timeline is never empty; the
// second result is how many samples it held.
func (h *hostClock) refSeconds(start, end time.Time) (ref float64, samples int) {
	lo, hi := start.Sub(h.epoch), end.Sub(h.epoch)
	nb := int((hi-lo)/calBucket) + 1
	buckets := make([][]float64, nb)
	h.mu.Lock()
	for i, at := range h.at {
		if at < lo-calEvery || at > hi+calEvery {
			continue
		}
		b := min(max(int((at-lo)/calBucket), 0), nb-1)
		buckets[b] = append(buckets[b], h.ns[i])
		samples++
	}
	h.mu.Unlock()
	kernel := make([]float64, nb) // 0: no sample
	for b, v := range buckets {
		if len(v) > 0 {
			sort.Float64s(v)
			kernel[b] = v[len(v)/2]
		}
	}
	prev := -1
	for b := 0; b <= nb; b++ {
		if b < nb && kernel[b] == 0 {
			continue
		}
		// Fill the gap (prev, b) between two sampled buckets, or off
		// either end of the timeline.
		for g := prev + 1; g < b; g++ {
			switch {
			case prev < 0 && b == nb:
				kernel[g] = calRefNs
			case prev < 0:
				kernel[g] = kernel[b]
			case b == nb:
				kernel[g] = kernel[prev]
			default:
				w := float64(g-prev) / float64(b-prev)
				kernel[g] = (1-w)*kernel[prev] + w*kernel[b]
			}
		}
		prev = b
	}
	for b, k := range kernel {
		width := calBucket
		if b == nb-1 {
			width = hi - lo - time.Duration(b)*calBucket
		}
		ref += width.Seconds() * calRefNs / k
	}
	return ref, samples
}

// tickRecorder is a telemetry.Recorder that does nothing but tick the
// host clock. Handed to datagen (set-up) and to the multi-second n=20
// solves, it puts samples inside intervals the benchmark cannot
// otherwise enter: the program calls Iteration once per optimizer
// iteration and Span around each gradient, on the goroutine that solves.
type tickRecorder struct{ telemetry.Nop }

func (tickRecorder) Iteration(telemetry.IterEvent) { clock.tick() }

func (tickRecorder) Span(string) func() {
	clock.tick()
	return func() {}
}
