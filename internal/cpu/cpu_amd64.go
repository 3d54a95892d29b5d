//go:build amd64 && !purego

package cpu

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Only valid when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// HasAVX2 reports whether AVX2 assembly kernels can run: the CPU
// implements AVX and AVX2 and the OS saves the YMM state across context
// switches (OSXSAVE set and XCR0 enabling both the SSE and AVX state
// components — without that, a YMM instruction faults even though CPUID
// advertises it).
func HasAVX2() bool {
	const (
		leaf1OSXSAVE = 1 << 27 // ECX
		leaf1AVX     = 1 << 28 // ECX
		leaf7AVX2    = 1 << 5  // EBX
		xcr0SSEAVX   = 0b110   // XMM and YMM state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&leaf1OSXSAVE == 0 || c1&leaf1AVX == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&xcr0SSEAVX != xcr0SSEAVX {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&leaf7AVX2 != 0
}
