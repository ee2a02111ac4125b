package lib

func ArchHook() { armOnly() }
