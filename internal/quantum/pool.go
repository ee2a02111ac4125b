package quantum

import (
	"runtime"
	"sync/atomic"
)

// Persistent worker pool.
//
// Every parallel kernel pass in this package — element-wise gates,
// fixed-geometry reductions, fused layer sweeps — used to spawn
// GOMAXPROCS goroutines plus a WaitGroup per call. A single gradient
// evaluation makes dozens of such passes, so goroutine setup dominated
// the parallel path's allocation profile (allocs/op rose with worker
// count) and its latency floor. The pool replaces that with long-lived
// workers that receive per-call jobs over a channel:
//
//   - Workers are spawned on demand, up to min(GOMAXPROCS−1,
//     maxPoolWorkers), and never exit — the goroutine count is bounded
//     and stable across any number of dispatches.
//   - A dispatch enqueues one pooled job descriptor; workers and the
//     caller claim chunks from it with an atomic counter, so the chunk
//     GEOMETRY (fixed by the dimension — see reduce.go) is independent
//     of who executes which chunk.
//   - Each chunk's partial lands in a per-job buffer that is pooled
//     with the job, so warm passes allocate nothing.
//
// The caller always participates in chunk execution: if every worker is
// busy (or the queue is full) the dispatch degrades to a serial pass
// over the same chunks rather than blocking.

// maxPoolWorkers bounds the number of persistent workers (and therefore
// the pool's goroutine footprint) regardless of GOMAXPROCS.
const maxPoolWorkers = 64

// chunkJob is one dispatched chunk pass: nc chunks of chunkLen
// elements, claimed by atomic counter; chunk c's partial f(lo, hi)
// lands in parts[c].
type chunkJob struct {
	f        func(lo, hi int) float64
	parts    []float64
	chunkLen int
	nc       int32
	next     atomic.Int32 // next unclaimed chunk
	done     atomic.Int32 // completed chunks
	refs     atomic.Int32 // outstanding holders (queue copies + caller)
	wake     chan struct{}
}

// jobFree recycles job descriptors through a bounded channel rather
// than a sync.Pool: pool caches are per-P and cleared by every GC, so
// under many workers a long benchmark run re-allocated jobs (and their
// parts buffers) once per P per GC cycle, and bytes/op grew with
// GOMAXPROCS. The channel freelist is
// GC-immune and shared across Ps; in steady state a handful of jobs
// circulate forever and warm dispatches allocate nothing.
var jobFree = make(chan *chunkJob, maxPoolWorkers)

func getJob() *chunkJob {
	select {
	case j := <-jobFree:
		return j
	default:
		return &chunkJob{wake: make(chan struct{}, 1)}
	}
}

var (
	jobQueue    = make(chan *chunkJob, 4*maxPoolWorkers)
	poolWorkers atomic.Int32
)

func poolWorker() {
	for job := range jobQueue {
		job.run()
		job.release()
	}
}

// ensureWorkers spawns persistent workers up to want (capped at
// maxPoolWorkers). Workers are never torn down; repeated calls are
// cheap no-ops once the pool is warm.
func ensureWorkers(want int) {
	if want > maxPoolWorkers {
		want = maxPoolWorkers
	}
	for {
		cur := poolWorkers.Load()
		if int(cur) >= want {
			return
		}
		if poolWorkers.CompareAndSwap(cur, cur+1) {
			go poolWorker()
		}
	}
}

// run claims and executes chunks until none remain. The goroutine that
// completes the LAST chunk signals the (capacity-1) wake channel; the
// dispatcher drains any stale token before reuse, so at most one token
// is ever pending.
func (j *chunkJob) run() {
	nc := j.nc
	for {
		c := j.next.Add(1) - 1
		if c >= nc {
			return
		}
		lo := int(c) * j.chunkLen
		hi := lo + j.chunkLen
		j.parts[c] = j.f(lo, hi)
		if j.done.Add(1) == nc {
			j.wake <- struct{}{}
		}
	}
}

// release drops one reference; the last holder clears the closure and
// returns the job to the freelist (dropping it if the list is full).
// Queue copies received after the job finished (stale copies) run zero
// chunks and release harmlessly — the job cannot be recycled while
// they are outstanding.
func (j *chunkJob) release() {
	if j.refs.Add(-1) == 0 {
		j.f = nil
		select {
		case jobFree <- j:
		default:
		}
	}
}

// dispatch fans nc chunks of clen elements out across the pool and the
// calling goroutine and returns the chunk partials folded in chunk
// order (left to right), so the result is bit-identical to a serial
// pass over the same chunks.
func dispatch(nc, clen int, f func(lo, hi int) float64) (sum float64) {
	j := getJob()
	select { // drain a stale completion token from a previous dispatch
	case <-j.wake:
	default:
	}
	j.f = f
	j.chunkLen = clen
	j.nc = int32(nc)
	j.next.Store(0)
	j.done.Store(0)
	if cap(j.parts) < nc {
		j.parts = make([]float64, nc)
	} else {
		j.parts = j.parts[:nc]
	}
	helpers := runtime.GOMAXPROCS(0) - 1
	if helpers > nc-1 {
		helpers = nc - 1
	}
	if helpers > maxPoolWorkers {
		helpers = maxPoolWorkers
	}
	if helpers > 0 {
		ensureWorkers(helpers)
	}
	j.refs.Store(int32(helpers) + 1)
	for i := 0; i < helpers; i++ {
		select {
		case jobQueue <- j:
		default: // queue full: caller just does more chunks itself
			j.refs.Add(-1)
		}
	}
	j.run()
	if j.done.Load() != j.nc {
		<-j.wake // workers still own claimed chunks; wait for the last
	}
	for _, p := range j.parts {
		sum += p
	}
	j.release()
	return sum
}
