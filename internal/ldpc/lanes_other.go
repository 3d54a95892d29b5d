//go:build !amd64 || purego

package ldpc

// flipRecords sizes synTrack.flips, which only the amd64 vector kernels
// use (lanes_amd64.go).
func flipRecords(maxDeg, z int) int { return 0 }
