package core

// asmLanes is how many destination bins one call of the assembly kernel
// computes: four YMM accumulators of four float64 lanes each.
const asmLanes = 16

// asmGather is the AVX2 interior kernel, or nil where the CPU or the OS
// lacks AVX2 (the kernel-equivalence test checks it when present).
var asmGather gatherFunc

// gatherInterior is the interior kernel evolveWindow runs, chosen once at
// package init.
var gatherInterior gatherFunc = gatherGo

func init() {
	if hasAVX2() {
		asmGather = gatherAVX2
		gatherInterior = gatherAVX2
	}
}

// gatherAVX2 is the assembly interior gather (a gatherFunc). Each
// gather16 call computes asmLanes adjacent destinations k..k+15 from the
// group's union source window [k-radius, k+15+radius]; the last group
// ends exactly at kHi and may overlap the one before it. A lane's value
// does not depend on which group computes it — a wider window only adds
// exact +0 terms from the padding — so recomputing lanes is harmless.
// Interiors narrower than one group fall back to gatherGo.
func gatherAVX2(dst, src, kernelPad []float64, radius, jlo, hi, kLo, kHi int) {
	if kHi-kLo < asmLanes {
		gatherGo(dst, src, kernelPad, radius, jlo, hi, kLo, kHi)
		return
	}
	for k := kLo; ; k += asmLanes {
		if k > kHi-asmLanes {
			k = kHi - asmLanes
		}
		j0 := k - radius
		if j0 < jlo {
			j0 = jlo
		}
		j1 := k + asmLanes - 1 + radius
		if j1 > hi-1 {
			j1 = hi - 1
		}
		base := k + radius + gatherPad
		// Bounds-check every element the assembly touches, so a broken
		// window invariant panics here instead of reading or writing
		// out of range.
		_ = dst[k+asmLanes-1]
		if j1 >= j0 {
			_, _, _ = src[j1], kernelPad[base-j1], kernelPad[base-j0+asmLanes-1]
		}
		gather16(&dst[k], &src[j0], &kernelPad[base-j0], j1-j0+1)
		if k == kHi-asmLanes {
			return
		}
	}
}

// gather16 sets dst[m] = Σ_i src[i]·w[m-i] for m in [0, 16) and i in
// [0, n), adding terms in ascending i: every source bin is broadcast and
// multiplied by 16 consecutive kernel taps, then added to the lane
// accumulators with a separate VMULPD and VADDPD. It never uses FMA: a
// fused multiply-add rounds once where gatherGo's multiply and add round
// twice, which would change result bits. w points at kernelPad[base-j0];
// the kernel row for source i starts i entries before it. n <= 0 stores
// zeros.
//
//go:noescape
func gather16(dst, src, w *float64, n int)

// hasAVX2 reports whether both the CPU and the OS support AVX2: CPUID
// leaf 1 must show AVX and OSXSAVE, XCR0 must show that the OS saves the
// XMM and YMM register state, and leaf 7 must show AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0 := xgetbv0(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled register state.
func xgetbv0() (eax uint32)
