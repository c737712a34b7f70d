// Package snapshot implements deterministic, versioned serialization of
// the full simulated machine: engine clock, memory system, caches, TLBs,
// page tables, persistence mechanisms, trackers, and kernel scheduler
// state. A snapshot is taken at a checkpoint commit hook — the machine's
// quiescent point, where every thread is parked at an op boundary and
// everything still in flight carries a stable resume identity — and a
// resumed run replays byte-identically to one that never stopped.
//
// Format (all little-endian):
//
//	magic   u64  "PROSNAP1"
//	version u32  format version (currently 1)
//	4 sections, in order USER, ENGINE, MACHINE, KERNEL, each:
//	  id  u32
//	  len u64   payload length
//	  crc u32   IEEE CRC-32 of the payload
//	  payload
//
// The USER payload is opaque to this package; the runner stores its
// experiment baselines there. Any structural damage — bad magic, an
// unknown version, a wrong section id, a CRC mismatch, truncation —
// yields a typed error, never a panic.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"prosper/internal/kernel"
	"prosper/internal/sim"
	"prosper/internal/snapbuf"
)

// Magic identifies a Prosper simulator snapshot ("PROSNAP1", little-endian).
const Magic = uint64(0x3150414e534f5250)

// Version is the current snapshot format version. Resume refuses any
// other version: the encoding has no compatibility shims — a snapshot is
// a same-binary, same-configuration artifact, and silent cross-version
// decoding would corrupt state instead of failing loudly. Version 2
// dropped the frame allocators' free lists and allocated counts.
const Version = uint32(2)

// Section ids, in their required file order.
const (
	secUser    = uint32(1)
	secEngine  = uint32(2)
	secMachine = uint32(3)
	secKernel  = uint32(4)
)

var (
	// ErrBadMagic reports input that is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated reports a snapshot cut short.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt reports a snapshot that is structurally framed but whose
	// contents fail validation (CRC mismatch or undecodable section).
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrNotQuiescent reports a Save attempted at a point where machine
	// state cannot be fully serialized: outside a checkpoint commit hook,
	// with host-side closures pending, or with in-flight continuations
	// that carry no resume identity.
	ErrNotQuiescent = errors.New("snapshot: machine not at a quiescent point")
)

// Save serializes the kernel and everything beneath it. user is an
// opaque payload stored verbatim (the runner keeps its experiment
// baselines there). Save must be called from inside a checkpoint commit
// hook (Process.CommitHook); anywhere else it fails with ErrNotQuiescent.
// Save is a pure read — the simulation continues unperturbed afterwards.
func Save(w io.Writer, k *kernel.Kernel, user []byte) error {
	var claims sim.EventClaims

	mw := snapbuf.NewWriter()
	if err := k.Mach.SaveSnap(mw, &claims); err != nil {
		return fmt.Errorf("%w: %w", ErrNotQuiescent, err)
	}
	kw := snapbuf.NewWriter()
	if err := k.SaveSnap(kw, &claims); err != nil {
		return fmt.Errorf("%w: %w", ErrNotQuiescent, err)
	}

	// Every pending engine event must be claimed by exactly one owner, or
	// the resumed queue would silently diverge from the saved one.
	claimed := claims.Keys()
	pending := k.Eng.PendingKeys()
	if !slices.Equal(claimed, pending) {
		return fmt.Errorf("%w: %d pending engine events, %d claimed by snapshot owners",
			ErrNotQuiescent, len(pending), len(claimed))
	}

	ew := snapbuf.NewWriter()
	now, seq, fired := k.Eng.Clock()
	ew.I64(now)
	ew.U64(seq)
	ew.U64(fired)

	out := snapbuf.NewWriter()
	out.U64(Magic)
	out.U32(Version)
	writeSection(out, secUser, user)
	writeSection(out, secEngine, ew.Bytes())
	writeSection(out, secMachine, mw.Bytes())
	writeSection(out, secKernel, kw.Bytes())
	_, err := w.Write(out.Bytes())
	return err
}

func writeSection(out *snapbuf.Writer, id uint32, payload []byte) {
	out.U32(id)
	out.U64(uint64(len(payload)))
	out.U32(crc32.ChecksumIEEE(payload))
	out.Raw(payload)
}

// Resumed is a successfully restored simulation, paused inside the
// checkpoint commit hook the snapshot was taken in. Read User (the
// opaque payload given to Save), then call Finish exactly once to run
// the interrupted commit's epilogue and continue execution.
type Resumed struct {
	// User is the opaque payload stored by Save.
	User []byte

	k *kernel.Kernel
}

// Finish completes the resume: the interrupted checkpoint commit's
// epilogue runs (threads re-enqueue, the new interval opens) and any
// device completion batch the snapshot interrupted mid-fire delivers its
// remaining callbacks. After Finish the engine is ready to run.
func (res *Resumed) Finish() error {
	if err := res.k.FinishResume(); err != nil {
		return err
	}
	res.k.Mach.ResumeFiring()
	return nil
}

// Resume restores a snapshot into k, which must be a freshly booted
// kernel of the identical configuration and spawn sequence as the one
// that saved it. On success the kernel is paused at the snapshot's
// commit hook; call Finish on the result to continue. On failure the
// kernel may be partially overwritten and must be discarded.
func Resume(r io.Reader, k *kernel.Kernel) (res *Resumed, err error) {
	data, rerr := io.ReadAll(r)
	if rerr != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, rerr)
	}
	sections, err := parse(data)
	if err != nil {
		return nil, err
	}

	// The decoders below validate counts, ranges, and cross-references
	// before acting on them, but state restored across package boundaries
	// can still trip an internal invariant (a deliberately inconsistent
	// snapshot passes every local check yet violates a global one). A
	// snapshot is external input: map any such panic to ErrCorrupt rather
	// than crashing the host.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, p)
		}
	}()

	er := snapbuf.NewReader(sections[secEngine])
	now := er.I64()
	seq := er.U64()
	fired := er.U64()
	if er.Err() != nil {
		return nil, fmt.Errorf("%w: engine section: %w", ErrCorrupt, er.Err())
	}
	k.Eng.ResetQueue()
	k.Eng.RestoreClock(now, seq, fired)

	// Resume keys re-bind parked continuations anywhere in the machine,
	// so the full registry must exist before any section decodes: the
	// mechanisms' keyed tokens first, then the machine registers its
	// copy/fan engine slots as it materializes them.
	reg := make(map[uint64]sim.Done)
	k.RegisterResumeTokens(reg)
	if err := k.Mach.LoadSnap(snapbuf.NewReader(sections[secMachine]), reg); err != nil {
		return nil, fmt.Errorf("%w: machine section: %w", ErrCorrupt, err)
	}
	if err := k.LoadSnap(snapbuf.NewReader(sections[secKernel]), reg); err != nil {
		return nil, fmt.Errorf("%w: kernel section: %w", ErrCorrupt, err)
	}
	return &Resumed{User: sections[secUser], k: k}, nil
}

// parse validates framing and returns the four section payloads by id.
func parse(data []byte) (map[uint32][]byte, error) {
	r := snapbuf.NewReader(data)
	magic := r.U64()
	version := r.U32()
	if r.Err() != nil {
		return nil, ErrTruncated
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	if version != Version {
		return nil, fmt.Errorf("%w: snapshot v%d, binary supports v%d", ErrVersion, version, Version)
	}
	sections := make(map[uint32][]byte, 4)
	for _, want := range []uint32{secUser, secEngine, secMachine, secKernel} {
		id := r.U32()
		n := r.U64()
		crc := r.U32()
		if r.Err() != nil {
			return nil, ErrTruncated
		}
		if id != want {
			return nil, fmt.Errorf("%w: section %d where %d expected", ErrCorrupt, id, want)
		}
		if n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: section %d claims %d bytes with %d remaining", ErrTruncated, id, n, r.Remaining())
		}
		payload := make([]byte, n)
		copy(payload, r.Raw(int(n)))
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: section %d CRC mismatch", ErrCorrupt, id)
		}
		sections[id] = payload
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, r.Remaining())
	}
	return sections, nil
}
