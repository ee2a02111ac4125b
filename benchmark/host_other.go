//go:build !unix

package main

// Without statfs and getrusage the host block says so and
// process.cpu_util reads 0.
func fsType(string) string { return "unknown" }

func cpuSeconds() float64 { return 0 }
