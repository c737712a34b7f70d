// Package vm implements the virtual memory substrate of the simulated
// machine: a 4-level x86-64-style page table with accessed/dirty bits, a
// TLB model, and address spaces built from VMAs with demand paging hooks.
//
// The package is purely functional; timing (walk latency, TLB miss cost)
// is charged by the machine's page walker, which reads the synthetic
// physical addresses each table node carries. Host profiling follows the
// same split: the walker's continuations and page-fault events are born
// sim.CompVM, so engine event counts attribute walk/fault work here even
// though this package schedules nothing itself, while pprof samples in
// vm code attribute by package path (prosper-prof maps internal/vm to
// the vm component).
package vm

import "fmt"

// PTE permission and status flags, mirroring the x86-64 bits the paper's
// mechanisms rely on (present, writable, accessed, dirty, plus a soft
// "tracked" bit used by the write-protection tracker).
const (
	FlagPresent uint64 = 1 << 0
	FlagWrite   uint64 = 1 << 1
	FlagUser    uint64 = 1 << 2
	FlagAccess  uint64 = 1 << 5
	FlagDirty   uint64 = 1 << 6
	FlagSoft    uint64 = 1 << 9 // software-defined (SoftDirty-style)
)

// PTE is one page-table entry: the physical frame base plus flag bits.
type PTE struct {
	Frame uint64
	Flags uint64
}

// Present reports whether the entry maps a frame.
func (p *PTE) Present() bool { return p.Flags&FlagPresent != 0 }

// Writable reports whether the entry currently permits stores.
func (p *PTE) Writable() bool { return p.Flags&FlagWrite != 0 }

// Dirty reports the hardware dirty bit.
func (p *PTE) Dirty() bool { return p.Flags&FlagDirty != 0 }

const (
	levels       = 4
	indexBits    = 9
	entriesPerLv = 1 << indexBits
	pageShift    = 12
	vaBits       = pageShift + levels*indexBits // 48-bit canonical VA
)

// MaxVirtual is one past the highest representable virtual address.
const MaxVirtual uint64 = 1 << vaBits

type node struct {
	physBase uint64 // synthetic physical address of this table page
	children [entriesPerLv]*node
	ptes     []PTE // allocated only at the leaf level
}

// FrameSource supplies physical page frames for page-table nodes so that
// hardware walks have real addresses to read.
type FrameSource func() uint64

// PageTable is a 4-level radix page table.
type PageTable struct {
	root     *node
	frames   FrameSource
	mapped   int
	NodePage func(addr uint64) // optional hook when a node page is created
}

// NewPageTable builds an empty table; frames must return a fresh physical
// frame per call and must not be nil.
func NewPageTable(frames FrameSource) *PageTable {
	if frames == nil {
		panic("vm: nil frame source")
	}
	pt := &PageTable{frames: frames}
	pt.root = pt.newNode(false)
	return pt
}

func (pt *PageTable) newNode(leaf bool) *node {
	n := &node{physBase: pt.frames()}
	if leaf {
		n.ptes = make([]PTE, entriesPerLv)
	}
	if pt.NodePage != nil {
		pt.NodePage(n.physBase)
	}
	return n
}

func indexAt(vaddr uint64, level int) int {
	shift := pageShift + indexBits*(levels-1-level)
	return int((vaddr >> shift) & (entriesPerLv - 1))
}

func checkVA(vaddr uint64) {
	if vaddr >= MaxVirtual {
		panic(fmt.Sprintf("vm: non-canonical virtual address %#x", vaddr)) //prosperlint:ignore hotalloc panic path: the message formats only for a non-canonical address abort
	}
}

// Map installs a translation from the page containing vaddr to frame with
// the given flags (FlagPresent is implied).
func (pt *PageTable) Map(vaddr, frame, flags uint64) {
	checkVA(vaddr)
	n := pt.root
	for level := 0; level < levels-1; level++ {
		idx := indexAt(vaddr, level)
		if n.children[idx] == nil {
			n.children[idx] = pt.newNode(level == levels-2)
		}
		n = n.children[idx]
	}
	pte := &n.ptes[indexAt(vaddr, levels-1)]
	if !pte.Present() {
		pt.mapped++
	}
	*pte = PTE{Frame: frame &^ 0xfff, Flags: flags | FlagPresent}
}

// Lookup returns a pointer to the PTE for vaddr, or nil if no leaf table
// exists on its path. The entry may be non-present.
func (pt *PageTable) Lookup(vaddr uint64) *PTE {
	checkVA(vaddr)
	n := pt.root
	for level := 0; level < levels-1; level++ {
		n = n.children[indexAt(vaddr, level)]
		if n == nil {
			return nil
		}
	}
	return &n.ptes[indexAt(vaddr, levels-1)]
}

// WalkAddrsInto is the allocation-free variant of WalkAddrs for the hot
// page-walk path: it fills dst with the walk's physical addresses and
// returns how many levels were present (1..levels).
func (pt *PageTable) WalkAddrsInto(vaddr uint64, dst *[levels]uint64) int {
	checkVA(vaddr)
	n := 0
	nd := pt.root
	for level := 0; level < levels; level++ {
		idx := indexAt(vaddr, level)
		dst[n] = nd.physBase + uint64(idx)*8
		n++
		if level == levels-1 {
			break
		}
		nd = nd.children[idx]
		if nd == nil {
			break
		}
	}
	return n
}

// Translate performs a functional walk: on success it returns the physical
// address corresponding to vaddr and the leaf PTE.
func (pt *PageTable) Translate(vaddr uint64) (paddr uint64, pte *PTE, ok bool) {
	pte = pt.Lookup(vaddr)
	if pte == nil || !pte.Present() {
		return 0, pte, false
	}
	return pte.Frame | (vaddr & 0xfff), pte, true
}

// VisitRange invokes fn for every present PTE whose page base lies in
// [lo, hi), skipping absent subtrees, in ascending address order.
func (pt *PageTable) VisitRange(lo, hi uint64, fn func(pageVA uint64, pte *PTE)) {
	if hi > MaxVirtual {
		hi = MaxVirtual
	}
	if lo >= hi {
		return
	}
	pt.visit(pt.root, 0, 0, lo, hi, fn)
}

func (pt *PageTable) visit(n *node, level int, base uint64, lo, hi uint64, fn func(uint64, *PTE)) {
	span := uint64(1) << (pageShift + indexBits*(levels-1-level)) // bytes per entry at this level
	for i := 0; i < entriesPerLv; i++ {
		entryBase := base + uint64(i)*span
		if entryBase+span <= lo || entryBase >= hi {
			continue
		}
		if level == levels-1 {
			pte := &n.ptes[i]
			if pte.Present() {
				fn(entryBase, pte)
			}
			continue
		}
		child := n.children[i]
		if child != nil {
			pt.visit(child, level+1, entryBase, lo, hi, fn)
		}
	}
}

// ClearFlagsRange clears the given flag bits on every present PTE in
// [lo, hi) and returns how many entries were touched. Used by dirty-bit
// tracking to reset D bits at interval start and by write-protection
// tracking to drop write permission.
func (pt *PageTable) ClearFlagsRange(lo, hi, flags uint64) int {
	n := 0
	pt.VisitRange(lo, hi, func(_ uint64, pte *PTE) {
		pte.Flags &^= flags
		n++
	})
	return n
}
