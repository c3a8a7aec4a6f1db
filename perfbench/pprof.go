package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: just enough of the profile.proto schema to recover each
// sample's call stack and CPU time.

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	fn   string // fully qualified, e.g. ccdem/internal/app.(*Model).RenderRegion
	file string
}

// stackSample is one profile sample: its stack, leaf first, and the CPU
// nanoseconds it stands for.
type stackSample struct {
	stack []frame
	ns    int64
}

type pbLine struct{ fn uint64 }

type pbFunc struct{ name, file int64 }

// readProfile decodes a gzipped CPU profile into stack samples.
func readProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		sampleTypes [][]byte
		samples     [][]byte
		locations   = map[uint64][]pbLine{}
		funcs       = map[uint64]pbFunc{}
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 4:
			id, lines, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locations[id] = lines
		case 5:
			id, f, err := decodeFunction(b)
			if err != nil {
				return err
			}
			funcs[id] = f
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU value is the sample type named "cpu" (nanoseconds).
	cpuIdx := -1
	for i, st := range sampleTypes {
		var typ int64
		if err := eachField(st, func(num, wire int, v uint64, b []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, sb := range samples {
		var locIDs []uint64
		var values []int64
		err := eachField(sb, func(num, wire int, v uint64, b []byte) error {
			switch {
			case num == 1 && wire == 2:
				return eachVarint(b, func(x uint64) { locIDs = append(locIDs, x) })
			case num == 1:
				locIDs = append(locIDs, v)
			case num == 2 && wire == 2:
				return eachVarint(b, func(x uint64) { values = append(values, int64(x)) })
			case num == 2:
				values = append(values, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(values) {
			return nil, errors.New("profile sample without a cpu value")
		}
		var s stackSample
		s.ns = values[cpuIdx]
		for _, id := range locIDs {
			for _, ln := range locations[id] {
				f := funcs[ln.fn]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// decodeLocation returns a Location's id and its lines, innermost
// inlined function first (the order profile.proto stores them in).
func decodeLocation(b []byte) (uint64, []pbLine, error) {
	var id uint64
	var lines []pbLine
	err := eachField(b, func(num, wire int, v uint64, lb []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			var ln pbLine
			err := eachField(lb, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					ln.fn = v
				}
				return nil
			})
			lines = append(lines, ln)
			return err
		}
		return nil
	})
	return id, lines, err
}

func decodeFunction(b []byte) (uint64, pbFunc, error) {
	var id uint64
	var f pbFunc
	err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			f.name = int64(v)
		case 4:
			f.file = int64(v)
		}
		return nil
	})
	return id, f, err
}

// eachField walks a protobuf message, calling fn with each field's number
// and wire type plus its varint value (wire types 0, 1, 5) or its bytes
// (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
