//go:build amd64 && !purego

package modulation

import "repro/internal/cpu"

// AVX2 SoA demodulation kernels (DESIGN §9): the amd64 implementation of
// axisLLR over eight PAM coordinates at once — four complex64 of one
// user's tile row, re/im interleaved as they lie in memory — with the
// result interleaved in registers into DemodulateSoftSoA's dst order. One
// kernel per constellation order; each walks every user row of the tile
// over its nsc/4 whole column groups and leaves columns past 4·(nsc/4) to
// the Go loop. They read tile[0 : users·nsc) and pam[0 : 2^(order/2))
// and write exactly the LLRs of the columns they cover.

func init() {
	if cpu.HasAVX2() {
		simdSoA = (*Table).soaGroupsAVX2
	}
}

// soaGroupsAVX2 runs the order's kernel; users >= 1 and nsc >= 4 are the
// caller's to guarantee (the kernels' loops count down to zero).
func (t *Table) soaGroupsAVX2(dst []float32, tile []complex64, users, nsc int, inv float32) {
	switch t.Order {
	case QPSK:
		demodSoAQPSKAVX2(&dst[0], &tile[0], users, nsc, &t.pam[0], inv)
	case QAM16:
		demodSoA16AVX2(&dst[0], &tile[0], users, nsc, &t.pam[0], inv)
	case QAM64:
		demodSoA64AVX2(&dst[0], &tile[0], users, nsc, &t.pam[0], inv)
	case QAM256:
		demodSoA256AVX2(&dst[0], &tile[0], users, nsc, &t.pam[0], inv)
	}
}

//go:noescape
func demodSoAQPSKAVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)

//go:noescape
func demodSoA16AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)

//go:noescape
func demodSoA64AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)

//go:noescape
func demodSoA256AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)
