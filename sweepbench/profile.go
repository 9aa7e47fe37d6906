package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The traced run attributes its CPU profile to layers. A layer is a
// module of the repository: every sample is charged to the innermost
// sprout/internal/<layer> frame on its stack, so runtime work (malloc,
// map access, memmove, GC assists) lands on the layer that caused it.
// Samples without a repository frame are background GC ("gc") or
// anything else ("other"). Only the standard library is available, so
// this file decodes the few fields of the pprof protobuf it needs.

const repoPrefix = "sprout/internal/"

// gcRoots are the runtime's background GC and scavenger goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf names the layer a sample's stack is charged to. frames lists
// function names innermost first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	return "other"
}

// cpuSample is one profile sample: its stack (innermost first) and the
// CPU time it stands for.
type cpuSample struct {
	frames []string
	cpuNs  int64
}

// attribute sums CPU seconds per layer.
func attribute(samples []cpuSample) (perLayer map[string]float64, total float64) {
	perLayer = map[string]float64{}
	for _, s := range samples {
		sec := float64(s.cpuNs) / 1e9
		perLayer[layerOf(s.frames)] += sec
		total += sec
	}
	return perLayer, total
}

// readProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func readProfile(path string) ([]cpuSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return samples, nil
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

type rawSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile extracts each sample's stack and CPU nanoseconds.
func decodeProfile(raw []byte) ([]cpuSample, error) {
	var (
		strs      []string
		typeIdx   []int64 // sample_type[i].type as a string index
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err := fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			var t int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeType {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case profSample:
			var s rawSample
			err := fields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case sampleLocation:
					return repeatedVarint(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeatedVarint(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return fields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("no cpu sample type")
	}
	out := make([]cpuSample, 0, len(rawSamps))
	for _, s := range rawSamps {
		if cpu >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{frames: frames, cpuNs: s.values[cpu]})
	}
	return out, nil
}

// fields walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarint handles a repeated varint field in either encoding:
// packed (wire type 2) or one value per field (wire type 0).
func repeatedVarint(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
