package qaoa

import (
	"math/rand"
	"sync"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/quantum"
)

func arenaProblem(t *testing.T, n int, seed int64) *Problem {
	t.Helper()
	g := graph.ErdosRenyiConnected(n, 0.4, rand.New(rand.NewSource(seed)))
	pb, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// TestArenaSteadyStateAllocatesNoAmplitudes is the zero-alloc pin for
// workspace pooling: after one warm-up evaluator has populated the
// arena, further evaluator lifecycles on same-width problems must
// allocate zero bytes of amplitude storage — state and adjoint buffers
// both come from the pool. n >= StreamingThreshold so the problem
// itself holds no 2^n cost table either. Depth 1 draws its only buffer
// for the readout (the closed form needs none), depth 2 a state and an
// adjoint.
func TestArenaSteadyStateAllocatesNoAmplitudes(t *testing.T) {
	const n = StreamingThreshold + 1
	for _, p := range []int{1, 2} {
		a := NewArena(0)
		x := testParams(p).Vector()
		grad := make([]float64, 2*p)
		lifecycle := func(seed int64) {
			ev := NewEvaluatorArena(arenaProblem(t, n, seed), p, a)
			ev.NegExpectation(x)
			ev.NegValueGrad(x, grad)
			ev.BestSampled(FromVector(x))
			ev.Release()
		}
		lifecycle(1)

		before := quantum.AmpBytesAllocated()
		for seed := int64(2); seed < 8; seed++ {
			lifecycle(seed)
		}
		if delta := quantum.AmpBytesAllocated() - before; delta != 0 {
			t.Fatalf("p=%d: steady-state evaluators allocated %d bytes of amplitude storage, want 0", p, delta)
		}
		st := a.Stats()
		if st.Gets == 0 || st.Hits == 0 {
			t.Fatalf("p=%d: arena never hit: stats %+v", p, st)
		}
		a.Close()
	}
}

// TestArenaBitIdentity: a workspace built on recycled (dirty) buffers
// must produce bit-identical expectations, gradients and readouts to a
// freshly allocated one.
func TestArenaBitIdentity(t *testing.T) {
	a := NewArena(0)
	defer a.Close()

	// Dirty the pool with a different instance of the same width.
	dirty := arenaProblem(t, 10, 99)
	x := []float64{0.9, -0.3, 0.2, 0.5}
	grad := make([]float64, 4)
	ev := NewEvaluatorArena(dirty, 2, a)
	ev.NegValueGrad(x, grad)
	ev.Release()

	pb := arenaProblem(t, 10, 7)
	pooled := NewEvaluatorArena(pb, 2, a)
	fresh := NewEvaluator(pb, 2)
	defer pooled.Release()
	defer fresh.Release() // no arena: a no-op

	if got, want := pooled.NegExpectation(x), fresh.NegExpectation(x); got != want {
		t.Fatalf("pooled expectation %v != fresh %v", got, want)
	}
	gradP, gradF := make([]float64, 4), make([]float64, 4)
	if got, want := pooled.NegValueGrad(x, gradP), fresh.NegValueGrad(x, gradF); got != want {
		t.Fatalf("pooled value %v != fresh %v", got, want)
	}
	for i := range gradP {
		if gradP[i] != gradF[i] {
			t.Fatalf("grad[%d]: pooled %v != fresh %v", i, gradP[i], gradF[i])
		}
	}
	pr := Params{Gamma: x[:2], Beta: x[2:]}
	sp, ap := pooled.BestSampled(pr)
	sf, af := fresh.BestSampled(pr)
	if sp != sf || ap != af {
		t.Fatalf("pooled readout (%v, %b) != fresh (%v, %b)", sp, ap, sf, af)
	}
}

// TestArenaMultiChunkReuse: a streamed half register of two chunks
// round-trips through the arena (same width → same buffers) and stays
// bit-identical on dirty reuse.
func TestArenaMultiChunkReuse(t *testing.T) {
	a := NewArena(0)
	defer a.Close()
	// n = 15: the half register is 14 qubits, two chunks.
	pb := arenaProblem(t, StreamingThreshold+2, 3)
	x := []float64{0.6, 0.1}

	w1 := newWorkspace(pb.kernel(), a)
	first := w1.ExpectationVec(x)
	w1.Release()

	dirty := arenaProblem(t, StreamingThreshold+2, 55)
	wd := newWorkspace(dirty.kernel(), a)
	wd.ExpectationVec(x)
	wd.Release()

	base := quantum.AmpBytesAllocated()
	w2 := newWorkspace(pb.kernel(), a)
	defer w2.Release()
	if delta := quantum.AmpBytesAllocated() - base; delta != 0 {
		t.Fatalf("pooled workspace allocated %d amplitude bytes, want 0", delta)
	}
	if got := w2.ExpectationVec(x); got != first {
		t.Fatalf("recycled expectation %v != first run %v", got, first)
	}
}

// TestArenaCapAndClose: the per-width pool never exceeds its cap (extra
// buffers are dropped), and a closed arena declines further buffers while
// still serving fresh allocations.
func TestArenaCapAndClose(t *testing.T) {
	a := NewArena(2)
	pooled := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.free[6])
	}
	for i := 0; i < 5; i++ {
		a.put(quantum.NewState(6))
	}
	if got := pooled(); got != 2 {
		t.Fatalf("pool holds %d states over cap 2", got)
	}

	a.Close()
	if st := a.get(6); st == nil || st.NumQubits() != 6 {
		t.Fatal("closed arena must still hand out fresh states")
	}
	a.put(quantum.NewState(6))
	if got := pooled(); got != 0 {
		t.Fatalf("closed arena retained %d states, want 0", got)
	}

	// nil arena: plain allocation.
	var nilA *Arena
	if st := nilA.get(5); st.NumQubits() != 5 {
		t.Fatal("nil arena get")
	}
}

// TestArenaConcurrent hammers get/put from many goroutines; the race
// detector (CI runs this package with -race) is the real assertion.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena(4)
	defer a.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 5 + g%3
			for i := 0; i < 50; i++ {
				a.put(a.get(n))
			}
		}(g)
	}
	wg.Wait()
	if st := a.Stats(); st.Gets != 400 {
		t.Fatalf("gets = %d, want 400", st.Gets)
	}
}
