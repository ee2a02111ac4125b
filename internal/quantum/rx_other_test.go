//go:build !amd64

package quantum

// forEachKernel calls f once per body the butterflies can run: off amd64
// the Go bodies only (see rx_amd64_test.go).
func forEachKernel(f func(kernel string)) { f("go") }
