package mem

import "slices"

// Domain models the NVM persistence domain: the boundary between data
// that survives a power failure and data that does not.
//
// Function and timing are split in this simulator (Storage holds bytes
// immediately; Device computes completion times), so without a domain a
// crash at an arbitrary cycle could never lose a write still sitting in
// the NVM write buffer — the persistence domain would be effectively
// infinite. Domain closes that gap: the machine's shared Storage is the
// *volatile* view (caches, buffers, in-flight writes), while Domain
// keeps a private durable shadow of the NVM range that a line only
// enters when the device's timed write for it completes.
//
// The protocol, driven by Device via the PersistSink interface:
//
//   - WriteAdmitted(addr) fires when a write begins service at the
//     device. The functional bytes for the line are already in the live
//     Storage at that point (functional-first simulation), so Domain
//     snapshots the line into a per-line FIFO of in-flight values.
//   - WriteCompleted(addr) fires when that write's latency elapses; the
//     oldest in-flight snapshot of the line merges into the durable
//     shadow. Per-line completion order matches admission order because
//     bank occupancy is monotone and the write latency is constant.
//
// On power failure, no-ADR mode (the default) drops every in-flight
// snapshot: only completed writes survive. ADR mode models asynchronous
// DRAM refresh-style flush-on-fail hardware: writes already *admitted*
// to the device are drained into the durable shadow (newest snapshot
// per line wins), but writes still in caches or never issued are lost
// either way. Tearing is at cache-line granularity in both modes: a
// multi-line update can survive partially, but a single line is always
// entirely old or entirely new.
type Domain struct {
	live    *Storage
	durable *Storage
	adr     bool

	pending map[uint64][]lineSnap // line base -> FIFO of admitted snapshots
	// snapPool recycles drained FIFO backings: the common case is one
	// in-flight write per line, so without the pool every first admission
	// of a line allocates a fresh single-snapshot slice.
	snapPool [][]lineSnap //prosperlint:ignore snapshot allocation recycling only; LoadSnap resets it and contents never affect behavior
	// stale counts completion events that will still fire for writes
	// whose snapshots a Crash already discarded (the in-place crash path
	// keeps the engine alive); they must not consume post-crash entries.
	stale map[uint64]int
}

type lineSnap [LineSize]byte

// NewDomain builds the persistence domain over the machine's live
// Storage. Any NVM pages already materialized are treated as durable:
// the post-crash reboot path hands the surviving image to a fresh
// machine, and everything in it has by construction already persisted.
func NewDomain(live *Storage, adr bool) *Domain {
	return &Domain{
		live:    live,
		durable: live.CloneRange(NVMBase, NVMSize),
		adr:     adr,
		pending: make(map[uint64][]lineSnap),
		stale:   make(map[uint64]int),
	}
}

// WriteAdmitted implements PersistSink: snapshot the line's current
// functional value as the payload of a write now in flight.
func (d *Domain) WriteAdmitted(addr uint64) {
	if !IsNVM(addr) {
		return
	}
	line := LineOf(addr)
	var snap lineSnap
	d.live.Read(line, snap[:])
	q, ok := d.pending[line]
	if !ok {
		if n := len(d.snapPool); n > 0 {
			q = d.snapPool[n-1]
			d.snapPool = d.snapPool[:n-1]
		}
	}
	d.pending[line] = append(q, snap) //prosperlint:ignore hotalloc amortized: the admitted-write ring is reused; growth is bounded by buffer depth
}

// WriteCompleted implements PersistSink: the oldest in-flight write of
// the line reached the media; merge its snapshot into the durable shadow.
func (d *Domain) WriteCompleted(addr uint64) {
	if !IsNVM(addr) {
		return
	}
	line := LineOf(addr)
	if n := d.stale[line]; n > 0 {
		// Completion of a write whose power was cut mid-flight.
		if n == 1 {
			delete(d.stale, line)
		} else {
			d.stale[line] = n - 1
		}
		return
	}
	q := d.pending[line]
	if len(q) == 0 {
		return
	}
	d.durable.Write(line, q[0][:])
	if len(q) == 1 {
		delete(d.pending, line)
		d.snapPool = append(d.snapPool, q[:0])
	} else {
		d.pending[line] = q[1:]
	}
}

// Persist functionally promotes [addr, addr+size) from the live view to
// the durable shadow with no timing cost. It models tiny metadata
// updates (superblock words, process headers) that the kernel fences
// synchronously at negligible cost next to the data they describe; the
// checkpoint payload path never uses it.
func (d *Domain) Persist(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	lo, hi := addr, addr+size
	if lo < NVMBase {
		lo = NVMBase
	}
	if hi > PhysTop {
		hi = PhysTop
	}
	if lo >= hi {
		return
	}
	buf := make([]byte, hi-lo)
	d.live.Read(lo, buf)
	d.durable.Write(lo, buf)
}

// CrashImage returns what NVM would hold after a power failure right
// now, without disturbing the running machine: a fresh Storage holding
// only the durable shadow (plus, in ADR mode, the newest admitted
// snapshot of each in-flight line). DRAM is absent entirely.
func (d *Domain) CrashImage() *Storage {
	img := d.durable.CloneRange(NVMBase, NVMSize)
	if d.adr {
		for _, line := range d.pendingLinesSorted() {
			q := d.pending[line]
			snap := q[len(q)-1]
			img.Write(line, snap[:])
		}
	}
	return img
}

// pendingLinesSorted returns the in-flight line addresses in ascending
// order so crash handling never depends on map iteration order.
func (d *Domain) pendingLinesSorted() []uint64 {
	lines := make([]uint64, 0, len(d.pending))
	for line := range d.pending {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return lines
}

// Crash applies power-failure semantics to the live Storage in place:
// in ADR mode admitted writes drain into the durable shadow first, then
// every in-flight snapshot is discarded and the live NVM range is
// replaced by the durable shadow. The caller separately drops DRAM.
// Completion events already scheduled for the discarded writes are
// remembered so they cannot consume post-crash admissions.
func (d *Domain) Crash() {
	for _, line := range d.pendingLinesSorted() {
		q := d.pending[line]
		if d.adr {
			snap := q[len(q)-1]
			d.durable.Write(line, snap[:])
		}
		d.stale[line] += len(q)
	}
	d.pending = make(map[uint64][]lineSnap)
	d.live.ReplaceRange(NVMBase, NVMSize, d.durable)
}
