// Package cpu is the CPU feature probe shared by the packages that carry
// hand-vectorised kernels — internal/ldpc (layer kernels), internal/fft
// (stage kernels and IQ12 unpack), internal/modulation (SoA soft demod),
// internal/mat (the four-row GEMM tile of equalize and precode) and
// internal/fronthaul (the FEC's GF(2^8) multiply-XOR):
// stdlib only (the module has no golang.org/x/sys), two instructions
// wrapped in cpu_amd64.s.
//
// The kernel contract those five packages share is stated here once.
// Which implementation runs is decided by the build and the host, never
// by an option: the GOARCH, the purego build tag (the Go ecosystem's
// conventional "no assembly" tag) and, at init, the CPUID/XGETBV probe
// HasAVX2. An amd64 build without purego on an AVX2 host runs the vector
// kernels; every other build or host runs the portable Go loops, which
// are also the bit-identity reference the vector kernels are tested
// against. Each package exports Kernel() — "avx2" or "generic" — and the
// engine carries the answers as one (stage, kernel) table onto
// every obs surface (obs.Metrics.Kernels, the agora_kernel_info family,
// the cmd/agora start-up line). `go test -tags purego ./...` (make
// generic) runs every suite on the Go loops on any host.
//
// Only the amd64 kernel files import this package; under purego or on
// another GOARCH it is empty.
package cpu
