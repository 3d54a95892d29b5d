// Package cpu is the CPU feature probe shared by the packages that carry
// hand-vectorised kernels (internal/ldpc, internal/fft): stdlib only (the
// module has no golang.org/x/sys), two instructions wrapped in
// cpu_amd64.s. Only amd64 files import it; on every other GOARCH the
// package is empty and the callers' Go loops are the only kernels.
package cpu
