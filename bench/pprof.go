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

// cpuModules are the modules a CPU profile is split into; everything else is
// "other", and garbage-collector work is "runtime_gc".
var cpuModules = []string{"amoebot", "engine", "portal", "ett", "core", "pasc", "wave", "baseline", "par", "dense"}

// cpuShares attributes each sample of a pprof CPU profile to a module and
// returns every module's share of the total CPU time (keys of cpuModules plus
// "runtime_gc" and "other"). Samples of untimed work are left out.
func cpuShares(profile []byte) (map[string]float64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"runtime_gc": 0, "other": 0}
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total float64
	for _, s := range samples {
		if s.untimed {
			continue
		}
		shares[bucketOf(s.stack)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// bucketOf attributes one stack (leaf first): to runtime_gc when any frame is
// collector work, else to the module of the leaf-most frame that belongs to a
// repository package — so a runtime helper such as memclr counts towards the
// repository code that called it.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			for _, known := range cpuModules {
				if m == known {
					return m
				}
			}
			return "other"
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// packageOf returns the import path of a function symbol, e.g.
// "spforest/internal/core" for "spforest/internal/core.(*Env).Lanes".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf names the repository module of a function symbol by the last
// element of its package path ("core", "engine", "service", ...), or "" for
// code outside the repository.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "spforest" {
		return "spforest"
	}
	if !strings.HasPrefix(pkg, "spforest/") {
		return ""
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// profSample is one decoded profile sample: function names leaf first, its
// weight (CPU nanoseconds, or the sample count when absent), and whether it
// carries the untimed label.
type profSample struct {
	stack   []string
	weight  int64
	untimed bool
}

// decodeProfile decodes the parts of a gzip-compressed pprof protobuf that
// attribution needs: samples, locations, functions and the string table.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs      []uint64
		values    []uint64
		labelKeys []uint64 // string indices
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(wire, v, b, &s.locs)
				case 2:
					return repeated(wire, v, b, &s.values)
				case 3: // Label
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, v)
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: 1}
		if len(s.values) > 0 {
			ps.weight = int64(s.values[len(s.values)-1])
		}
		for _, k := range s.labelKeys {
			ps.untimed = ps.untimed || (k < uint64(len(strs)) && strs[k] == untimedLabel)
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks the fields of one protobuf message, handing varints as v and
// length-delimited payloads as b to fn.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, packed or not.
func repeated(wire int, v uint64, b []byte, out *[]uint64) error {
	if wire == 0 {
		*out = append(*out, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*out = append(*out, x)
		b = b[n:]
	}
	return nil
}
