// Package hostprof is a stdlib-only decoder for pprof CPU/heap profiles
// that attributes samples to simulated components by package path. It
// follows the same ethos as internal/analysis's Loader: no module
// dependencies, just enough of the format (gzip framing + protobuf
// varints) to read what the Go runtime writes.
package hostprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// The pprof wire format is a gzipped protobuf message
// (perftools.profiles.Profile). We decode only the fields the attributor
// needs — sample types, samples, the location→function graph, and the
// string table — with a hand-rolled varint reader, so the repository
// keeps its zero-dependency stance.
//
// Field numbers below match proto/profile.proto from the pprof project:
//
//	Profile:  sample_type=1 sample=2 location=4 function=5
//	          string_table=6 time_nanos=9 duration_nanos=10
//	          period_type=11 period=12
//	Sample:   location_id=1 value=2
//	Location: id=1 line=4
//	Line:     function_id=1
//	Function: id=1 name=2

// ValueType names one dimension of a profile's sample values, e.g.
// {Type: "cpu", Unit: "nanoseconds"}.
type ValueType struct {
	Type string
	Unit string
}

// Sample is one stack sample: location IDs leaf-first, one value per
// sample type.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	SampleTypes   []ValueType
	Samples       []Sample
	TimeNanos     int64
	DurationNanos int64
	Period        int64
	PeriodType    ValueType

	// locFuncs maps a location ID to its function names leaf-first
	// (inlined frames expanded: the innermost inline first).
	locFuncs map[uint64][]string
}

// FuncStack returns the sample's function names leaf-first, expanding
// inlined frames. Unknown location IDs contribute nothing.
func (p *Profile) FuncStack(s Sample) []string {
	var out []string
	for _, id := range s.LocationIDs {
		out = append(out, p.locFuncs[id]...)
	}
	return out
}

// Parse decodes a pprof profile, transparently gunzipping if the input
// carries the gzip magic. It returns an error for truncated or malformed
// input rather than guessing.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("hostprof: bad gzip framing: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("hostprof: truncated gzip stream: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("hostprof: corrupt gzip stream: %w", err)
		}
		data = raw
	}
	return parseProfile(data)
}

// wire types used by the pprof encoding.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// reader walks a protobuf message buffer.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) done() bool { return r.pos >= len(r.data) }

// varint decodes one base-128 varint.
func (r *reader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.pos >= len(r.data) {
			return 0, fmt.Errorf("hostprof: truncated varint at offset %d", r.pos)
		}
		b := r.data[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("hostprof: varint overflows 64 bits at offset %d", r.pos)
}

// tag decodes a field tag into (field number, wire type).
func (r *reader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytes decodes one length-delimited field body.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, fmt.Errorf("hostprof: length-delimited field of %d bytes exceeds remaining %d", n, len(r.data)-r.pos)
	}
	out := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// skip consumes a field body of the given wire type.
func (r *reader) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := r.varint()
		return err
	case wireFixed64:
		if len(r.data)-r.pos < 8 {
			return fmt.Errorf("hostprof: truncated fixed64 at offset %d", r.pos)
		}
		r.pos += 8
		return nil
	case wireBytes:
		_, err := r.bytes()
		return err
	case wireFixed32:
		if len(r.data)-r.pos < 4 {
			return fmt.Errorf("hostprof: truncated fixed32 at offset %d", r.pos)
		}
		r.pos += 4
		return nil
	default:
		return fmt.Errorf("hostprof: unsupported wire type %d at offset %d", wire, r.pos)
	}
}

// uint64s decodes a repeated integer field, accepting both packed
// (length-delimited) and unpacked (single varint) encodings.
func uint64s(r *reader, wire int, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	}
	if wire != wireBytes {
		return nil, fmt.Errorf("hostprof: repeated int field has wire type %d", wire)
	}
	body, err := r.bytes()
	if err != nil {
		return nil, err
	}
	rr := reader{data: body}
	for !rr.done() {
		v, err := rr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// rawValueType carries string-table indexes until resolution.
type rawValueType struct{ typ, unit uint64 }

func parseValueType(body []byte) (rawValueType, error) {
	r := reader{data: body}
	var vt rawValueType
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return vt, err
		}
		switch field {
		case 1:
			if vt.typ, err = r.varint(); err != nil {
				return vt, err
			}
		case 2:
			if vt.unit, err = r.varint(); err != nil {
				return vt, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

func parseSample(body []byte) (Sample, error) {
	r := reader{data: body}
	var s Sample
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.LocationIDs, err = uint64s(&r, wire, s.LocationIDs); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = uint64s(&r, wire, nil); err != nil {
				return s, err
			}
			for _, v := range vals {
				s.Values = append(s.Values, int64(v))
			}
		default:
			if err := r.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// rawLocation keeps the line list as function IDs leaf-first.
type rawLocation struct {
	id      uint64
	funcIDs []uint64
}

func parseLocation(body []byte) (rawLocation, error) {
	r := reader{data: body}
	var loc rawLocation
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return loc, err
		}
		switch field {
		case 1:
			if loc.id, err = r.varint(); err != nil {
				return loc, err
			}
		case 4:
			line, err := r.bytes()
			if err != nil {
				return loc, err
			}
			fid, err := parseLine(line)
			if err != nil {
				return loc, err
			}
			loc.funcIDs = append(loc.funcIDs, fid)
		default:
			if err := r.skip(wire); err != nil {
				return loc, err
			}
		}
	}
	return loc, nil
}

func parseLine(body []byte) (uint64, error) {
	r := reader{data: body}
	var fid uint64
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return 0, err
		}
		if field == 1 {
			if fid, err = r.varint(); err != nil {
				return 0, err
			}
			continue
		}
		if err := r.skip(wire); err != nil {
			return 0, err
		}
	}
	return fid, nil
}

type rawFunction struct {
	id   uint64
	name uint64 // string table index
}

func parseFunction(body []byte) (rawFunction, error) {
	r := reader{data: body}
	var fn rawFunction
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return fn, err
		}
		switch field {
		case 1:
			if fn.id, err = r.varint(); err != nil {
				return fn, err
			}
		case 2:
			if fn.name, err = r.varint(); err != nil {
				return fn, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return fn, err
			}
		}
	}
	return fn, nil
}

func parseProfile(data []byte) (*Profile, error) {
	r := reader{data: data}
	var (
		rawTypes  []rawValueType
		rawPeriod rawValueType
		locs      []rawLocation
		funcs     []rawFunction
		strings   []string
	)
	p := &Profile{locFuncs: map[uint64][]string{}}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(body)
			if err != nil {
				return nil, err
			}
			rawTypes = append(rawTypes, vt)
		case 2: // sample
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			s, err := parseSample(body)
			if err != nil {
				return nil, err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			loc, err := parseLocation(body)
			if err != nil {
				return nil, err
			}
			locs = append(locs, loc)
		case 5: // function
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			fn, err := parseFunction(body)
			if err != nil {
				return nil, err
			}
			funcs = append(funcs, fn)
		case 6: // string_table
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			strings = append(strings, string(body))
		case 9: // time_nanos
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			p.TimeNanos = int64(v)
		case 10: // duration_nanos
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64(v)
		case 11: // period_type
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if rawPeriod, err = parseValueType(body); err != nil {
				return nil, err
			}
		case 12: // period
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			p.Period = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(strings)) {
			return "", fmt.Errorf("hostprof: string table index %d out of range (table has %d entries)", idx, len(strings))
		}
		return strings[idx], nil
	}
	for _, vt := range rawTypes {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: t, Unit: u})
	}
	if t, err := str(rawPeriod.typ); err == nil {
		if u, err2 := str(rawPeriod.unit); err2 == nil {
			p.PeriodType = ValueType{Type: t, Unit: u}
		}
	}
	funcNames := make(map[uint64]string, len(funcs))
	for _, fn := range funcs {
		name, err := str(fn.name)
		if err != nil {
			return nil, err
		}
		funcNames[fn.id] = name
	}
	for _, loc := range locs {
		names := make([]string, 0, len(loc.funcIDs))
		for _, fid := range loc.funcIDs {
			names = append(names, funcNames[fid])
		}
		p.locFuncs[loc.id] = names
	}
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("hostprof: profile declares no sample types (not a pprof profile?)")
	}
	for i, s := range p.Samples {
		if len(s.Values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("hostprof: sample %d has %d values, want %d (one per sample type)", i, len(s.Values), len(p.SampleTypes))
		}
	}
	return p, nil
}
