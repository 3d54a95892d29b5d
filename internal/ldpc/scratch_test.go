package ldpc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// byteRange is one allocation's bytes, [lo, lo+n), as seen by a test.
type byteRange struct {
	name string
	lo   uintptr
	n    uintptr
}

func sliceRange[T any](name string, s []T) byteRange {
	var zero T
	return byteRange{name, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s)) * unsafe.Sizeof(zero)}
}

// lines is the range of 64-byte line numbers holding a byte of r.
func (r byteRange) lines() (first, last uintptr) {
	return r.lo / lineBytes, (r.lo + r.n - 1) / lineBytes
}

func (r byteRange) touchesLinesOf(w byteRange) bool {
	wf, wl := w.lines()
	rf, rl := r.lines()
	return rf <= wl && wf <= rl
}

// writtenRanges lists every slab a decode writes. It writes no field of
// the Decoder struct itself.
func writtenRanges(d *Decoder) []byteRange {
	return []byteRange{
		sliceRange("l", d.l),
		sliceRange("r", d.r),
		sliceRange("hard", d.hard),
		sliceRange("signs", d.signs),
		sliceRange("laneQ", d.laneQ),
		sliceRange("laneMin1", d.laneMin1),
		sliceRange("laneMin2", d.laneMin2),
		sliceRange("laneIdx", d.laneIdx),
		sliceRange("laneSgn", d.laneSgn),
	}
}

// allRanges is every byte of d a neighbour could share a line with: the
// struct itself, the written slabs and the read-only tables.
func allRanges(d *Decoder) []byteRange {
	return append(writtenRanges(d),
		byteRange{"Decoder", uintptr(unsafe.Pointer(d)), unsafe.Sizeof(*d)},
		sliceRange("eOff", d.eOff),
		sliceRange("first", d.first),
		sliceRange("steady", d.steady),
		sliceRange("sLast", d.sLast),
		sliceRange("zeros", d.zeros),
	)
}

// TestDecoderScratchIsolated pins the line-ownership rule of the decoder
// scratch (DESIGN §13, Scratch ownership): no 64-byte line holding a
// byte a decode writes also holds a byte of another allocation. For each
// lifting size and k, the heap gets k fillers of every written slab's
// byte size (so they land in the slabs' size classes), a Decoder, k more
// fillers and a second Decoder — the back-to-back pattern of one
// engine's workers — and neither decoder's written lines may hold a byte
// of a filler or of the other decoder. The written slabs are the posterior
// slab l, the messages r, the packed hard and signs words, the Q slab and
// the four lane-state arrays.
func TestDecoderScratchIsolated(t *testing.T) {
	var zs []int
	for z := 2; z <= 40; z++ {
		zs = append(zs, z)
	}
	zs = append(zs, 104, 384)
	// shared[slab] marks the k values at which that slab shared a line.
	shared := map[string]*[8]bool{}
	for _, z := range zs {
		code := MustNew(Rate13, z)
		var sizes []uintptr
		for _, r := range writtenRanges(NewDecoder(code)) {
			sizes = append(sizes, r.n)
		}
		for k := 0; k < 8; k++ {
			var fillers [][]byte
			fill := func() {
				for _, n := range sizes {
					for range k {
						fillers = append(fillers, make([]byte, n))
					}
				}
			}
			fill()
			a := NewDecoder(code)
			fill()
			b := NewDecoder(code)
			var others [2][]byteRange
			for _, f := range fillers {
				others[0] = append(others[0], sliceRange("filler", f))
			}
			others[1] = slices.Clone(others[0])
			others[0] = append(others[0], allRanges(b)...)
			others[1] = append(others[1], allRanges(a)...)
			for i, d := range []*Decoder{a, b} {
				for _, w := range writtenRanges(d) {
					for _, o := range others[i] {
						if o.touchesLinesOf(w) {
							name := fmt.Sprintf("%s (next to %s)", w.name, o.name)
							if shared[name] == nil {
								shared[name] = new([8]bool)
								t.Logf("first at Z=%d k=%d: decoder %d's %s shares a line with %s", z, k, i, w.name, o.name)
							}
							shared[name][k] = true
						}
					}
				}
			}
			runtime.KeepAlive(fillers)
			runtime.KeepAlive(a)
			runtime.KeepAlive(b)
		}
	}
	var names []string
	for name := range shared {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		var ks []int
		for k, h := range shared[name] {
			if h {
				ks = append(ks, k)
			}
		}
		t.Errorf("%s shared a 64-byte line at k in %v", name, ks)
	}
}
