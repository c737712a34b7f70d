// Package mem provides the physical memory substrate of the simulated
// hybrid-memory machine: a byte-accurate functional store, timing models
// for the DRAM (DDR4-2400-like) and NVM (PCM-like) devices of Table II of
// the paper, a memory controller that routes physical addresses, and
// physical frame allocators.
//
// Timing and function are split: Storage holds real bytes (so checkpoint
// and crash-recovery tests can verify content), while Device/Controller
// only compute when an access completes.
package mem

// Fixed geometry shared across the simulator.
const (
	PageSize  = 4096 // OS page, matching x86-64 4 KiB pages
	LineSize  = 64   // cache line size in every level (Table II)
	PageShift = 12
	LineShift = 6
)

// Physical address map: DRAM occupies the low 3 GiB, NVM the 2 GiB above
// it (Table II, Setup-I: 3 GB DRAM + 2 GB NVM).
const (
	DRAMBase uint64 = 0
	DRAMSize uint64 = 3 << 30
	NVMBase  uint64 = DRAMBase + DRAMSize
	NVMSize  uint64 = 2 << 30
	PhysTop  uint64 = NVMBase + NVMSize
)

// IsNVM reports whether the physical address falls in the NVM range.
func IsNVM(addr uint64) bool { return addr >= NVMBase && addr < PhysTop }

// PageOf returns the page-aligned base of addr.
func PageOf(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// LineOf returns the line-aligned base of addr.
func LineOf(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// LinesSpanned returns how many cache lines the byte range
// [addr, addr+size) touches.
func LinesSpanned(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineOf(addr)
	last := LineOf(addr + uint64(size) - 1)
	return int((last-first)/LineSize) + 1
}
