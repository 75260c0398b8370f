//go:build !linux

package main

// fsType names the filesystem holding path; only Linux is decoded.
func fsType(path string) string { return "unknown" }
