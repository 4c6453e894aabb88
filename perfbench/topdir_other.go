//go:build !linux

package main

// setTopDir is a no-op where the "top of directory hierarchy" flag does
// not exist.
func setTopDir(string) {}
