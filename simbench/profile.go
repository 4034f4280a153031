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

// profileLayers are the layers CPU time is charged to: the Go packages
// under stackedsim/internal on the simulation path, "core" for the
// system assembly's own closures, "other" for any other stackedsim
// package, and "runtime" for samples with no stackedsim/internal frame
// (garbage collection, the scheduler, the benchmark's own loop).
var profileLayers = []string{
	"workload", "cpu", "tlb", "cache", "prefetch", "mshr", "vbf", "coherence", "noc",
	"memctrl", "dram", "bus", "mem", "sim", "core", "other", "runtime",
}

// pkgOf names the stackedsim/internal package a function belongs to,
// or "" when the function is outside stackedsim/internal.
func pkgOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "stackedsim/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerOf folds a package into its reported layer.
func layerOf(pkg string) string {
	for _, l := range profileLayers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// attribution is CPU time charged per layer.
type attribution struct {
	nanos   map[string]int64 // layer -> CPU nanoseconds
	pkgs    map[string]int64 // package -> CPU nanoseconds, before folding into "other"
	samples int64
}

func newAttribution() *attribution {
	return &attribution{nanos: map[string]int64{}, pkgs: map[string]int64{}}
}

func (a *attribution) total() int64 {
	var t int64
	for _, n := range a.nanos {
		t += n
	}
	return t
}

// add charges every sample of a pprof CPU profile to the innermost
// stack frame in a stackedsim/internal package, so time spent in a
// runtime helper such as map lookup lands on the layer that called it.
// Samples with no such frame go to "runtime".
func (a *attribution) add(raw []byte) error {
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("profile has no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return errors.New("profile sample is missing its cpu value")
		}
		pkg := "runtime"
	frames:
		for _, locID := range s.locations {
			// A location's functions run innermost first: entries
			// before the last were inlined into it.
			for _, fnID := range p.locations[locID] {
				if fp := pkgOf(p.functions[fnID]); fp != "" {
					pkg = fp
					break frames
				}
			}
		}
		a.nanos[layerOf(pkg)] += s.values[vi]
		a.pkgs[pkg] += s.values[vi]
		a.samples++
	}
	return nil
}

// profile is the subset of the pprof protobuf format attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a (possibly gzipped) pprof profile.proto.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []int64
	funcNames := map[uint64]int64{}
	err := walk(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcNames {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.functions[id] = s
	}
	return p, nil
}

// walk calls fn for every field of a protobuf message: v is the value
// of a varint field, b the payload of a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field, either packed (b holds the
// values) or one value per field (v).
func packed(v uint64, b []byte, emit func(uint64)) error {
	if b == nil {
		emit(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		emit(x)
		b = b[n:]
	}
	return nil
}
