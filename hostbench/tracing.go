package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round share a
// trace id ("round-3"), spans of one fleet job share the round's and
// the job's ids ("round-3/j000012").
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// named returns a copy of every span called name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// perTrace sums the seconds of the spans called name by trace id.
func (t *tracer) perTrace(name string) []float64 {
	sums := map[string]float64{}
	var order []string
	for _, s := range t.named(name) {
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += s.seconds()
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The rest of this file reads the gzipped protobuf the runtime/pprof
// profiles are written in, just far enough to sum sample values by
// the package of the leaf function (self time), or by whether a
// package is anywhere on the stack.

// profSample is one decoded sample: its stack as function names, leaf
// first, and its last value (CPU nanoseconds, or mutex delay).
type profSample struct {
	stack []string
	value int64
}

func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strtab  []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strtab) {
					ps.stack = append(ps.stack, strtab[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field in either encoding:
// one value (v) or a packed run (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields calls fn for every field of a protobuf message: varints
// arrive as v (b nil), length-delimited fields as b (a non-nil
// subslice of buf, even when empty).
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage extracts the import path from a symbol name such as
// "care/internal/core/pmc.(*Logic).Tick" or
// "care/cache.(*ShardedCache[go.shape.uint64,...]).Get".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// inPackages reports whether pkg is one of pkgs or nested under one.
func inPackages(pkg string, pkgs []string) bool {
	for _, p := range pkgs {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// groupOf returns the share metric of the group whose entry matches
// pkg most specifically ("internal/runtime/syscall" is syscall's, not
// runtime's), or "".
func groupOf(pkg string) string {
	best, metric := -1, ""
	for _, g := range shareGroups {
		for _, p := range g.packages {
			if len(p) > best && inPackages(pkg, []string{p}) {
				best, metric = len(p), g.metric
			}
		}
	}
	return metric
}

// onStack reports whether any frame of s belongs to pkgs.
func onStack(s profSample, pkgs []string) bool {
	for _, fn := range s.stack {
		if inPackages(funcPackage(fn), pkgs) {
			return true
		}
	}
	return false
}

// selfShares sums leaf-frame time by shareGroups, as shares of all
// samples except those with a frame in excluded packages (the
// calibration kernel, which runs between rounds).
func selfShares(samples []profSample, excluded []string, m map[string]float64) {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		if len(s.stack) == 0 || onStack(s, excluded) {
			continue
		}
		total += s.value
		if g := groupOf(funcPackage(s.stack[0])); g != "" {
			by[g] += s.value
		}
	}
	if total == 0 {
		return
	}
	for _, g := range shareGroups {
		m[g.metric] = float64(by[g.metric]) / float64(total)
	}
}
