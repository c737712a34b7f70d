package vm

import (
	"fmt"
	"sort"

	"prosper/internal/mem"
)

// VMAKind classifies a virtual memory area; the checkpoint engine treats
// stack and heap areas differently per the paper's design.
type VMAKind int

// VMA kinds.
const (
	KindCode VMAKind = iota
	KindHeap
	KindStack
	KindBitmap // Prosper dirty-bitmap metadata area
	KindOther
)

func (k VMAKind) String() string {
	switch k {
	case KindCode:
		return "code"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindBitmap:
		return "bitmap"
	default:
		return "other"
	}
}

// VMA is one virtual memory area of an address space.
type VMA struct {
	Lo, Hi    uint64 // [Lo, Hi), page aligned
	Kind      VMAKind
	Writable  bool
	GrowsDown bool // stack areas grow toward lower addresses on demand
	InNVM     bool // demand frames come from the NVM pool (SSP, Romulus)
	ThreadID  int  // owning thread for stack areas, -1 otherwise
}

// Contains reports whether addr falls inside the area.
func (v *VMA) Contains(addr uint64) bool { return addr >= v.Lo && addr < v.Hi }

// AddressSpace is a process's virtual address space: an ordered VMA list
// over a private page table, with frame pools for hybrid memory.
type AddressSpace struct {
	vmas []*VMA
	PT   *PageTable

	dram *mem.FrameAllocator
	nvm  *mem.FrameAllocator

	// FaultHook, when non-nil, observes every demand-paging and
	// write-permission fault the space resolves (used by the
	// write-protection tracker and SSP).
	FaultHook func(vaddr uint64, write bool, vma *VMA)

	demandFaults int
	writeFaults  int
}

// NewAddressSpace creates an empty space drawing page-table pages and
// anonymous frames from the given pools.
func NewAddressSpace(dram, nvm *mem.FrameAllocator) *AddressSpace {
	as := &AddressSpace{dram: dram, nvm: nvm}
	as.PT = NewPageTable(func() uint64 {
		f, err := dram.Alloc()
		if err != nil {
			panic("vm: out of DRAM frames for page tables: " + err.Error())
		}
		return f
	})
	return as
}

// AddVMA registers an area. Areas must be page aligned and disjoint.
func (as *AddressSpace) AddVMA(v *VMA) error {
	if v.Lo%mem.PageSize != 0 || v.Hi%mem.PageSize != 0 || v.Lo >= v.Hi {
		return fmt.Errorf("vm: VMA [%#x,%#x) not page aligned", v.Lo, v.Hi)
	}
	if v.Hi > MaxVirtual {
		return fmt.Errorf("vm: VMA beyond canonical space")
	}
	for _, existing := range as.vmas {
		if v.Lo < existing.Hi && existing.Lo < v.Hi {
			return fmt.Errorf("vm: VMA [%#x,%#x) overlaps [%#x,%#x)", v.Lo, v.Hi, existing.Lo, existing.Hi)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Lo < as.vmas[j].Lo })
	return nil
}

// FindVMA returns the area containing addr. For a stack area, addresses
// up to one page below Lo also resolve to it (growth window), mirroring
// on-demand stack extension.
func (as *AddressSpace) FindVMA(addr uint64) *VMA {
	for _, v := range as.vmas {
		if v.Contains(addr) {
			return v
		}
		if v.GrowsDown && addr < v.Lo && v.Lo-addr <= guardWindow {
			return v
		}
	}
	return nil
}

// guardWindow is how far below a grows-down VMA a fault may land and
// still be treated as legitimate stack growth (128 KiB, like Linux's
// stack expansion heuristics allow for large stack frames).
const guardWindow = 128 << 10

// DemandFaults returns how many demand-paging faults were serviced.
//
//prosperlint:ignore deadcode machine.TestCoreDemandFaultCharged and kernel.TestStackAndHeapActuallyWritten count faults with it
func (as *AddressSpace) DemandFaults() int { return as.demandFaults }

// WriteFaults returns how many write-permission faults were serviced.
func (as *AddressSpace) WriteFaults() int { return as.writeFaults }

// allocFrame draws a frame from the pool the VMA is placed in.
func (as *AddressSpace) allocFrame(v *VMA) uint64 {
	pool := as.dram
	if v.InNVM {
		pool = as.nvm
	}
	f, err := pool.Alloc()
	if err != nil {
		panic("vm: " + err.Error())
	}
	return f
}

// HandleFault resolves a page fault at vaddr. It returns the fault kind
// resolved ("demand", "grow", "wperm") or an error for an illegal access
// (segfault). Growth of grows-down areas extends VMA.Lo.
func (as *AddressSpace) HandleFault(vaddr uint64, write bool) (string, error) {
	v := as.FindVMA(vaddr)
	if v == nil {
		return "", fmt.Errorf("vm: segfault at %#x", vaddr)
	}
	if write && !v.Writable {
		return "", fmt.Errorf("vm: write to read-only area at %#x", vaddr)
	}
	kind := "demand"
	if v.GrowsDown && vaddr < v.Lo {
		newLo := mem.PageOf(vaddr)
		v.Lo = newLo
		kind = "grow"
	}
	pte := as.PT.Lookup(vaddr)
	if pte != nil && pte.Present() {
		// Present but faulted: write-permission fault (tracking mechanisms
		// or inter-thread stack protection removed FlagWrite).
		if write && !pte.Writable() {
			pte.Flags |= FlagWrite | FlagDirty | FlagAccess
			as.writeFaults++
			if as.FaultHook != nil {
				as.FaultHook(vaddr, write, v)
			}
			return "wperm", nil
		}
		return "", fmt.Errorf("vm: spurious fault at %#x", vaddr)
	}
	frame := as.allocFrame(v)
	flags := FlagUser | FlagAccess
	if v.Writable {
		flags |= FlagWrite
	}
	if write {
		flags |= FlagDirty
	}
	as.PT.Map(vaddr, frame, flags)
	as.demandFaults++
	if as.FaultHook != nil {
		as.FaultHook(vaddr, write, v)
	}
	return kind, nil
}

// EnsureRange maps every page of [lo, hi) immediately (used for the
// Prosper bitmap area and NVM regions that must not demand-fault).
func (as *AddressSpace) EnsureRange(lo, hi uint64) {
	for va := mem.PageOf(lo); va < hi; va += mem.PageSize {
		if pte := as.PT.Lookup(va); pte != nil && pte.Present() {
			continue
		}
		if _, err := as.HandleFault(va, false); err != nil {
			panic(err.Error())
		}
	}
}
