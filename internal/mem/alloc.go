package mem

import "fmt"

// FrameAllocator hands out page-sized physical frames from a fixed range
// with a bump cursor; frames are never returned. It backs the kernel's
// DRAM and NVM frame pools.
type FrameAllocator struct {
	base, size uint64
	next       uint64
}

// NewFrameAllocator manages [base, base+size); both must be page-aligned.
func NewFrameAllocator(base, size uint64) *FrameAllocator {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: allocator range not page aligned: %#x+%#x", base, size))
	}
	return &FrameAllocator{base: base, size: size, next: base}
}

// Alloc returns the physical base of a free frame.
func (a *FrameAllocator) Alloc() (uint64, error) {
	if a.next >= a.base+a.size {
		return 0, fmt.Errorf("mem: out of frames in [%#x,%#x)", a.base, a.base+a.size)
	}
	f := a.next
	a.next += PageSize
	return f, nil
}

// AllocContiguous reserves n physically contiguous frames and returns the
// base of the run, which suits the long-lived NVM checkpoint areas and
// DRAM bitmap areas that need them.
func (a *FrameAllocator) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocContiguous(%d)", n)
	}
	need := uint64(n) * PageSize
	if a.next+need > a.base+a.size {
		return 0, fmt.Errorf("mem: out of contiguous frames (%d pages)", n)
	}
	base := a.next
	a.next += need
	return base, nil
}
