// pprof.go encodes a Snapshot as a gzip-compressed pprof profile —
// the protobuf `perftools.profiles.Profile` message `go tool pprof`
// reads — with no protobuf dependency: the wire format for the
// handful of fields a flat guest profile needs (varints,
// length-delimited submessages, packed repeated ints) is small enough
// to emit by hand.
//
// Frame strings become Functions (pc-stripped name) and Locations
// (one per distinct frame string; the leaf's ":pc" suffix becomes the
// Line.line so pprof's source view distinguishes sample sites inside
// one method). Sample location_ids are leaf-first per the format.
package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"strconv"
	"strings"
	"time"
)

// proto field tags for the pprof Profile message and its submessages.
const (
	profSampleType   = 1
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	profTimeNanos    = 9
	profDurationNs   = 10
	profPeriodType   = 11
	profPeriod       = 12
	valueTypeType    = 1
	valueTypeUnit    = 2
	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	lineLine         = 2
	functionID       = 1
	functionName     = 2
	functionSysName  = 3
	functionFilename = 4
)

type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

// tagVarint writes field<<3|0 then the varint value.
func (b *protoBuf) tagVarint(field int, v int64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(uint64(v))
}

// tagBytes writes field<<3|2 then a length-delimited payload.
func (b *protoBuf) tagBytes(field int, payload []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(payload)))
	b.Write(payload)
}

// tagPacked writes a packed repeated varint field.
func (b *protoBuf) tagPacked(field int, vals []uint64) {
	var inner protoBuf
	for _, v := range vals {
		inner.varint(v)
	}
	b.tagBytes(field, inner.Bytes())
}

// strTab interns strings for the profile's string_table; index 0 is
// always "".
type strTab struct {
	idx  map[string]int64
	list []string
}

func newStrTab() *strTab {
	return &strTab{idx: map[string]int64{"": 0}, list: []string{""}}
}

func (t *strTab) id(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// sampleTypes returns the (type, unit) pairs for each profile kind,
// matching the conventions runtime/pprof uses so `go tool pprof`
// picks sensible default sample indexes.
func sampleTypes(kind Kind) [][2]string {
	switch kind {
	case Alloc:
		return [][2]string{{"alloc_objects", "count"}, {"alloc_space", "bytes"}}
	case Block:
		return [][2]string{{"contentions", "count"}, {"delay", "nanoseconds"}}
	default:
		return [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}}
	}
}

// WritePprof encodes the snapshot as a gzipped pprof protobuf.
// duration is the sampling window (zero for cumulative profiles).
func (s Snapshot) WritePprof(w io.Writer, duration time.Duration) error {
	var out protoBuf

	st := newStrTab()
	for _, pair := range sampleTypes(s.Kind) {
		var vt protoBuf
		vt.tagVarint(valueTypeType, st.id(pair[0]))
		vt.tagVarint(valueTypeUnit, st.id(pair[1]))
		out.tagBytes(profSampleType, vt.Bytes())
	}

	// One Location (and one Function) per distinct frame string. The
	// function name strips the ":pc" leaf suffix; the pc itself is
	// the Line.line, so quickened and generic tiers that attribute to
	// the same source pc collapse to the same location.
	locIDs := map[string]uint64{}
	type locDef struct {
		frame string
		id    uint64
	}
	var locs []locDef
	locFor := func(frame string) uint64 {
		if id, ok := locIDs[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locIDs[frame] = id
		locs = append(locs, locDef{frame: frame, id: id})
		return id
	}

	var samples []protoBuf
	for _, e := range s.Entries {
		ids := make([]uint64, 0, len(e.Stack))
		for i := len(e.Stack) - 1; i >= 0; i-- { // leaf first
			ids = append(ids, locFor(e.Stack[i]))
		}
		var sm protoBuf
		sm.tagPacked(sampleLocationID, ids)
		sm.tagPacked(sampleValue, []uint64{uint64(e.Count), uint64(e.Value)})
		samples = append(samples, sm)
	}
	for i := range samples {
		out.tagBytes(profSample, samples[i].Bytes())
	}

	funcIDs := map[string]uint64{}
	type funcDef struct {
		name string
		id   uint64
	}
	var funcs []funcDef
	for _, ld := range locs {
		name := LeafMethod(ld.frame)
		line := int64(0)
		if i := strings.LastIndexByte(ld.frame, ':'); i >= 0 {
			if n, err := strconv.ParseInt(ld.frame[i+1:], 10, 64); err == nil {
				line = n
			}
		}
		fid, ok := funcIDs[name]
		if !ok {
			fid = uint64(len(funcs) + 1)
			funcIDs[name] = fid
			funcs = append(funcs, funcDef{name: name, id: fid})
		}
		var ln protoBuf
		ln.tagVarint(lineFunctionID, int64(fid))
		if line > 0 {
			ln.tagVarint(lineLine, line)
		}
		var loc protoBuf
		loc.tagVarint(locationID, int64(ld.id))
		loc.tagBytes(locationLine, ln.Bytes())
		out.tagBytes(profLocation, loc.Bytes())
	}
	for _, fd := range funcs {
		var fn protoBuf
		fn.tagVarint(functionID, int64(fd.id))
		fn.tagVarint(functionName, st.id(fd.name))
		fn.tagVarint(functionSysName, st.id(fd.name))
		fn.tagVarint(functionFilename, st.id("(guest)"))
		out.tagBytes(profFunction, fn.Bytes())
	}

	if !s.Taken.IsZero() {
		out.tagVarint(profTimeNanos, s.Taken.Add(-duration).UnixNano())
	}
	if duration > 0 {
		out.tagVarint(profDurationNs, int64(duration))
	}
	// period_type/period: nominal sampling period, informational.
	var pt protoBuf
	pairs := sampleTypes(s.Kind)
	pt.tagVarint(valueTypeType, st.id(pairs[len(pairs)-1][0]))
	pt.tagVarint(valueTypeUnit, st.id(pairs[len(pairs)-1][1]))
	out.tagBytes(profPeriodType, pt.Bytes())
	out.tagVarint(profPeriod, int64(CPUInterval))

	// string_table last is fine — field order is free in protobuf.
	for _, str := range st.list {
		out.tagBytes(profStringTable, []byte(str))
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}
