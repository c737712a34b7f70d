package mem

import (
	"fmt"
	"slices"

	"prosper/internal/sim"
	"prosper/internal/snapbuf"
)

// This file implements snapshot save/load for the mem layer: the
// functional Storage, the persistence Domain, frame allocators, and the
// Device timing models. Encodings are deterministic — map contents are
// always emitted in sorted key order — so identical machine state always
// produces identical bytes.

// SaveSnap encodes every materialized page in ascending base order.
func (s *Storage) SaveSnap(w *snapbuf.Writer) {
	bases := make([]uint64, 0, len(s.pages))
	for base := range s.pages {
		bases = append(bases, base)
	}
	slices.Sort(bases)
	w.U64(uint64(len(bases)))
	for _, base := range bases {
		w.U64(base)
		w.Bytes8(s.pages[base][:])
	}
}

// LoadSnap replaces s's content with a saved page set.
func (s *Storage) LoadSnap(r *snapbuf.Reader) error {
	n := r.Count(8 + PageSize)
	s.pages = make(map[uint64]*[PageSize]byte, n)
	for i := 0; i < n; i++ {
		base := r.U64()
		data := r.Bytes8()
		if r.Err() != nil {
			return r.Err()
		}
		if base%PageSize != 0 || len(data) != PageSize {
			return fmt.Errorf("mem: malformed page record at %#x (%d bytes)", base, len(data))
		}
		p := new([PageSize]byte)
		copy(p[:], data)
		s.pages[base] = p
	}
	return r.Err()
}

// SaveSnap encodes the allocator cursor. The managed range is written
// too so a resume into a differently shaped machine fails loudly instead
// of corrupting frame accounting.
func (a *FrameAllocator) SaveSnap(w *snapbuf.Writer) {
	w.U64(a.base)
	w.U64(a.size)
	w.U64(a.next)
}

// LoadSnap restores the allocator cursor.
func (a *FrameAllocator) LoadSnap(r *snapbuf.Reader) error {
	base := r.U64()
	size := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if base != a.base || size != a.size {
		return fmt.Errorf("mem: allocator range mismatch: snapshot [%#x,+%#x), machine [%#x,+%#x)",
			base, size, a.base, a.size)
	}
	a.next = r.U64()
	return r.Err()
}

// SaveSnap encodes the persistence domain: the durable shadow plus every
// in-flight (admitted, not yet completed) line snapshot and the stale
// completion counts, in sorted line order.
func (d *Domain) SaveSnap(w *snapbuf.Writer) {
	w.Bool(d.adr)
	d.durable.SaveSnap(w)
	lines := d.pendingLinesSorted()
	w.U64(uint64(len(lines)))
	for _, line := range lines {
		q := d.pending[line]
		w.U64(line)
		w.U64(uint64(len(q)))
		for i := range q {
			w.Bytes8(q[i][:])
		}
	}
	stale := make([]uint64, 0, len(d.stale))
	for line := range d.stale {
		stale = append(stale, line)
	}
	slices.Sort(stale)
	w.U64(uint64(len(stale)))
	for _, line := range stale {
		w.U64(line)
		w.Int(d.stale[line])
	}
}

// LoadSnap restores the domain. The snapshot-pool cache is reset — it is
// a pure allocation optimization and not part of machine state.
func (d *Domain) LoadSnap(r *snapbuf.Reader) error {
	adr := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if adr != d.adr {
		return fmt.Errorf("mem: domain ADR mismatch: snapshot %v, machine %v", adr, d.adr)
	}
	if err := d.durable.LoadSnap(r); err != nil {
		return err
	}
	n := r.Count(16)
	d.pending = make(map[uint64][]lineSnap, n)
	d.snapPool = nil
	for i := 0; i < n; i++ {
		line := r.U64()
		qn := r.Count(LineSize)
		q := make([]lineSnap, 0, qn)
		for j := 0; j < qn; j++ {
			b := r.Bytes8()
			if r.Err() != nil {
				return r.Err()
			}
			if len(b) != LineSize {
				return fmt.Errorf("mem: malformed line snapshot (%d bytes)", len(b))
			}
			var snap lineSnap
			copy(snap[:], b)
			q = append(q, snap)
		}
		d.pending[line] = q
	}
	sn := r.Count(16)
	d.stale = make(map[uint64]int, sn)
	for i := 0; i < sn; i++ {
		line := r.U64()
		d.stale[line] = r.Int()
	}
	return r.Err()
}

// SaveSnap encodes the device's full timing state: bank/bus occupancy,
// in-flight counts, the admission queue, and every completion batch with
// the (when, seq) identity of its pending engine event. Batches still
// scheduled are claimed so Save can prove the engine queue is fully
// accounted for. Parked continuation tokens must carry resume keys; a
// valid unkeyed token rejects the snapshot point.
func (d *Device) SaveSnap(w *snapbuf.Writer, claims *sim.EventClaims) error {
	w.String(d.cfg.Name)
	w.U64(uint64(len(d.bankFreeAt)))
	for _, t := range d.bankFreeAt {
		w.I64(int64(t))
	}
	w.I64(int64(d.busFreeAt))
	w.Int(d.inflightReads)
	w.Int(d.inflightWrites)

	// Admission queue, compacted: consumed slots before waitHead are
	// dropped and the head resets to zero on load.
	pending := d.waiting[d.waitHead:]
	w.U64(uint64(len(pending)))
	for _, p := range pending {
		w.Bool(p.write)
		w.U64(p.addr)
		w.I64(int64(p.arrived))
		if err := sim.SaveDone(w, p.done); err != nil {
			return fmt.Errorf("%s admission queue: %w", d.cfg.Name, err)
		}
	}

	// Batches are saved at their live indices (free-listed ones included,
	// empty) so batch event arguments stay valid across resume.
	free := make(map[int]bool, len(d.batchFree))
	for _, idx := range d.batchFree {
		free[idx] = true
	}
	w.U64(uint64(len(d.batches)))
	for idx, b := range d.batches {
		w.U64(uint64(len(b.items)))
		for _, c := range b.items {
			w.Bool(c.write)
			w.U64(c.addr)
			if err := sim.SaveDone(w, c.done); err != nil {
				return fmt.Errorf("%s completion batch: %w", d.cfg.Name, err)
			}
		}
		w.I64(int64(b.when))
		w.U64(b.seq)
		if !free[idx] && idx != d.firing {
			claims.Claim(b.when, b.seq)
		}
	}
	w.U64(uint64(len(d.batchFree)))
	for _, idx := range d.batchFree {
		w.Int(idx)
	}
	w.Int(d.openBatch)
	w.I64(int64(d.openFinish))
	w.U64(d.openSeq)
	w.Int(d.firing)
	w.Int(d.firingPos)
	d.Counters.SaveSnap(w)
	d.Histograms.SaveSnap(w)
	return nil
}

// LoadSnap restores the device and re-injects the pending completion
// batch events into the engine (whose clock must already be restored).
// reg maps resume keys to live continuation prototypes.
func (d *Device) LoadSnap(r *snapbuf.Reader, reg map[uint64]sim.Done) error {
	name := r.String()
	if r.Err() != nil {
		return r.Err()
	}
	if name != d.cfg.Name {
		return fmt.Errorf("mem: device mismatch: snapshot %q, machine %q", name, d.cfg.Name)
	}
	nb := r.Count(8)
	if nb != len(d.bankFreeAt) {
		return fmt.Errorf("mem: %s bank count mismatch: snapshot %d, machine %d", name, nb, len(d.bankFreeAt))
	}
	for i := range d.bankFreeAt {
		d.bankFreeAt[i] = sim.Time(r.I64())
	}
	d.busFreeAt = sim.Time(r.I64())
	d.inflightReads = r.Int()
	d.inflightWrites = r.Int()

	nw := r.Count(18)
	d.waiting = d.waiting[:0]
	d.waitHead = 0
	for i := 0; i < nw; i++ {
		var p pendingAccess
		p.write = r.Bool()
		p.addr = r.U64()
		p.arrived = sim.Time(r.I64())
		done, err := sim.LoadDone(r, reg)
		if err != nil {
			return fmt.Errorf("%s admission queue: %w", name, err)
		}
		p.done = done
		d.waiting = append(d.waiting, p)
	}

	nbatch := r.Count(24)
	d.batches = d.batches[:0]
	for i := 0; i < nbatch; i++ {
		b := &completionBatch{}
		ni := r.Count(10)
		for j := 0; j < ni; j++ {
			var c devCompletion
			c.write = r.Bool()
			c.addr = r.U64()
			done, err := sim.LoadDone(r, reg)
			if err != nil {
				return fmt.Errorf("%s completion batch: %w", name, err)
			}
			c.done = done
			b.items = append(b.items, c)
		}
		b.when = sim.Time(r.I64())
		b.seq = r.U64()
		d.batches = append(d.batches, b)
	}
	nfree := r.Count(8)
	d.batchFree = d.batchFree[:0]
	free := make(map[int]bool, nfree)
	for i := 0; i < nfree; i++ {
		idx := r.Int()
		if idx < 0 || idx >= len(d.batches) {
			return fmt.Errorf("mem: %s free batch index %d out of range", name, idx)
		}
		d.batchFree = append(d.batchFree, idx)
		free[idx] = true
	}
	d.openBatch = r.Int()
	d.openFinish = sim.Time(r.I64())
	d.openSeq = r.U64()
	d.firing = r.Int()
	d.firingPos = r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if d.openBatch >= len(d.batches) || d.firing >= len(d.batches) {
		return fmt.Errorf("mem: %s batch cursor out of range", name)
	}
	if err := d.Counters.LoadSnap(r); err != nil {
		return err
	}
	if err := d.Histograms.LoadSnap(r); err != nil {
		return err
	}

	// Re-inject the engine event behind every still-scheduled batch. The
	// firing batch's event has already been consumed; ResumeFiring
	// finishes its remaining items once the kernel is fully restored.
	now := d.eng.Now()
	for idx, b := range d.batches {
		if free[idx] || idx == d.firing || len(b.items) == 0 {
			continue
		}
		if b.when < now {
			return fmt.Errorf("mem: %s batch event at %d is in the past (now %d)", name, b.when, now)
		}
		d.eng.InjectDone(b.when, b.seq, sim.Bind(sim.CompMem, d.completeFn, uint64(idx)))
	}
	return nil
}

// ResumeFiring continues the completion batch a snapshot interrupted
// mid-fire, if any. Call only after the rest of the machine is restored:
// the remaining callbacks run against live kernel state.
func (d *Device) ResumeFiring() { d.resumeFiring() }
