//go:build !race

// Package race reports whether the binary runs under the race detector,
// for tests whose allocation and timing bounds the detector's
// instrumentation breaks: under it every sync.Pool drops a quarter of
// what it is given.
package race

// Enabled reports whether the race detector is on.
const Enabled = false
