package quantum

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns the last size bytes of a readable page followed by an
// inaccessible one, so that any load past them faults; the test is
// skipped where the mapping cannot be made.
func guarded(t *testing.T, size int) unsafe.Pointer {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Pointer(&mem[page-size])
}

// The register-table gather loads the factor table with masks: a table
// of 1 to 16 factors whose last byte ends a page must not fault on any
// tier, and the products must be the Go body's. PhaseFactors reads its
// generators and writes its table in whole groups, the last one
// overlapping, so both may end a page too.
func TestPhaseKernelReadsNothingPastTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	forEachKernel(t, func(kernel string) {
		for nf := 1; nf <= 16; nf++ {
			factors := unsafe.Slice((*complex128)(guarded(t, 16*nf)), nf)
			copy(factors, rxKernelInput(rng, nf, false))
			idx := make([]int32, 40)
			for i := range idx {
				idx[i] = int32(rng.Intn(nf))
			}
			want := rxKernelInput(rng, len(idx), false)
			got := append([]complex128(nil), want...)
			mulIndexedGo(want, idx, factors)
			mulIndexedRange(got, idx, factors)
			requireSameBits(t, fmt.Sprintf("%s mulIndexedRange nf=%d", kernel, nf), want, got)
		}
		for n := 1; n <= 20; n++ {
			gens := unsafe.Slice((*float64)(guarded(t, 8*n)), n)
			for j := range gens {
				gens[j] = float64(j) / 3
			}
			requirePhaseFactors(t, fmt.Sprintf("%s PhaseFactors n=%d", kernel, n), gens, 0.37, false)
			PhaseFactors(unsafe.Slice((*complex128)(guarded(t, 16*n)), n), gens, 0.37, false)
		}
	})
}
