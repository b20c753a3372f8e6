package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes a runtime/pprof CPU profile (gzipped profile.proto)
// with the standard library alone and assigns every sample's CPU time to
// one layer bucket: the innermost frame that belongs to a pim/internal
// package or to the benchmark itself names the bucket. Samples with no such
// frame go to "gc" when they run in the collector's background workers and
// to "other" otherwise.

// frame is one (possibly inlined) function of a sample's stack.
type frame struct{ fn, file string }

// sample is one profile sample: its stack, leaf first, and its CPU time.
type sample struct {
	stack []frame
	ns    int64
}

// pprof wire numbers (github.com/google/pprof/proto/profile.proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fProfilePeriod     = 12

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
	fFunctionFile = 4

	fValueTypeType = 1
)

var errProto = errors.New("malformed profile")

// field is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type field struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// fields decodes one protobuf message level.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into samples timed in CPU
// nanoseconds (the "cpu" value, or sample count × period without one).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs        []string
		typeIdx     []uint64 // sample type name string indexes
		period      int64
		rawSamples  []field
		locFuncs    = map[uint64][]uint64{}  // location -> function ids, innermost first
		funcs       = map[uint64][2]uint64{} // function -> name, file string indexes
		errInternal error
	)
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfilePeriod:
			period = int64(f.v)
		case fProfileSample:
			rawSamples = append(rawSamples, f)
		case fProfileSampleType:
			vt, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var t uint64
			for _, x := range vt {
				if x.num == fValueTypeType {
					t = x.v
				}
			}
			typeIdx = append(typeIdx, t)
		case fProfileLocation:
			lf, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case fLocationID:
					id = x.v
				case fLocationLine:
					ln, err := fields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, y := range ln {
						if y.num == fLineFunction {
							fns = append(fns, y.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileFunction:
			ff, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name, file uint64
			for _, x := range ff {
				switch x.num {
				case fFunctionID:
					id = x.v
				case fFunctionName:
					name = x.v
				case fFunctionFile:
					file = x.v
				}
			}
			funcs[id] = [2]uint64{name, file}
		}
	}
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			errInternal = errProto
			return ""
		}
		return strs[i]
	}
	// The CPU value is the one typed "cpu"; a count-only profile falls
	// back to samples × period.
	valIdx, scale := 0, period
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			valIdx, scale = i, 1
		}
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		sf, err := fields(rs.bytes)
		if err != nil {
			return nil, err
		}
		var s sample
		var vals []uint64
		for _, x := range sf {
			vs, err := x.varints()
			if err != nil {
				return nil, err
			}
			switch x.num {
			case fSampleLocation:
				for _, loc := range vs {
					for _, fid := range locFuncs[loc] {
						fn := funcs[fid]
						s.stack = append(s.stack, frame{fn: str(fn[0]), file: str(fn[1])})
					}
				}
			case fSampleValue:
				vals = append(vals, vs...)
			}
		}
		if valIdx < len(vals) {
			s.ns = int64(vals[valIdx]) * scale
		}
		out = append(out, s)
	}
	return out, errInternal
}

// cpuBuckets lists every bucket attribute can return, in report order.
var cpuBuckets = []string{
	"addr", "bench", "cbt", "core", "dvmrp", "fastpath", "gc", "igmp", "metrics", "mfib", "mospf",
	"netsim.deliver", "netsim.sched", "other", "packet", "pimdm", "pimmsg", "rpf",
	"scenario", "telemetry", "topology", "unicast",
}

// netsimSched lists the netsim files that make up the scheduler: event
// queue, timing wheel with its same-tick ordering, and the shard windows.
// Every other netsim file is delivery: send, fan-out and frames.
var netsimSched = map[string]bool{"sched.go": true, "wheel.go": true, "shards.go": true}

// gcRoots are the collector's background goroutines.
var gcRoots = map[string]bool{"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true}

// bucketOf names the layer a stack's CPU time belongs to.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(f.fn, "pim/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "netsim" {
			if netsimSched[path.Base(f.file)] {
				return "netsim.sched"
			}
			return "netsim.deliver"
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return pkg
			}
		}
		return "other"
	}
	for _, f := range stack {
		if gcRoots[f.fn] {
			return "gc"
		}
	}
	return "other"
}

// attribute sums the samples' CPU time per bucket; every sample lands in
// exactly one bucket, so the buckets sum to the returned total.
func attribute(samples []sample) (map[string]int64, int64) {
	out := map[string]int64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var total int64
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.ns
		total += s.ns
	}
	return out, total
}
