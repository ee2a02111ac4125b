//go:build !amd64

package quantum

import "testing"

// forEachKernel calls f once per tier the butterflies can run: off amd64
// the Go bodies only (see rx_amd64_test.go).
func forEachKernel(tb testing.TB, f func(kernel string)) {
	tb.Helper()
	f("go")
	tb.Log("avx2 and avx512 tiers skipped: their assembly is amd64 only")
}
