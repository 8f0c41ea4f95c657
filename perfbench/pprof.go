package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of the pprof profile format
// (github.com/google/pprof/proto/profile.proto, gzip-compressed protocol
// buffers) to bucket a CPU profile's samples by package: samples, their
// location stacks, the functions at each location, and the string table.

// profileSample is one stack with its CPU weight (the last sample value,
// nanoseconds for a Go CPU profile).
type profileSample struct {
	stack  []uint64 // location IDs, leaf first
	weight int64
}

type profile struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost inlined first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

var errProto = errors.New("malformed profile protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields decodes the top level of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field that may be packed (one
// length-delimited run of varints) or unpacked (one varint per field).
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s profileSample
			var values []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.stack, err = pbUints(sf, s.stack); err != nil {
						return nil, err
					}
				case 2:
					if values, err = pbUints(sf, values); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.weight = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // Line
					lfs, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							funcs = append(funcs, x.value)
						}
					}
				}
			}
			p.locations[id] = funcs
		case 5: // Function
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = int64(ff.value)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	return p, nil
}

// funcPackage returns the import path of a Go symbol name such as
// "tracecache/internal/exec.(*State).ReleaseBefore".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerShares buckets the profile's CPU time by repository package. Each
// sample is charged to the innermost frame that belongs to the module
// (import path under modulePrefix), so runtime helpers such as memmove,
// duffcopy and mallocgc count toward the layer that called them; samples
// with no module frame (scheduler, GC workers, network) land in "other".
// Keys are the package path with modulePrefix and "internal/" removed
// ("exec", "sim", ...); the shares sum to 1.
func layerShares(p *profile, modulePrefix string) map[string]float64 {
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		total += s.weight
		layer := "other"
	stack:
		for _, loc := range s.stack {
			for _, fn := range p.locations[loc] {
				idx := p.functions[fn]
				if idx < 0 || int(idx) >= len(p.strings) {
					continue
				}
				pkg := funcPackage(p.strings[idx])
				if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
					layer = strings.TrimPrefix(rest, "internal/")
					break stack
				}
			}
		}
		byLayer[layer] += s.weight
	}
	out := make(map[string]float64, len(byLayer))
	if total == 0 {
		return out
	}
	for k, v := range byLayer {
		out[k] = float64(v) / float64(total)
	}
	return out
}
