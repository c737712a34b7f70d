package mem

// IsDRAM reports whether the physical address falls in the DRAM range.
func IsDRAM(addr uint64) bool { return addr < DRAMSize }

// PagesSpanned returns how many OS pages the byte range
// [addr, addr+size) touches.
func PagesSpanned(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := PageOf(addr)
	last := PageOf(addr + uint64(size) - 1)
	return int((last-first)/PageSize) + 1
}
