//go:build !arm64

package lib

func ArchHook() {}
