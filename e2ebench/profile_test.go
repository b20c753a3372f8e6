package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// protoBuf hand-encodes the subset of profile.proto a CPU profile uses.
type protoBuf []byte

func (b protoBuf) varint(num int, v uint64) protoBuf {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b protoBuf) bytes(num int, v []byte) protoBuf {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// fixedProfile builds a small CPU profile: each stack is listed leaf
// first, a location may hold several inlined functions (innermost first),
// and sample values are [count, cpu ns]. The first sample's values are
// packed, the rest are not, as both encodings are legal.
func fixedProfile(t *testing.T, stacks [][][]frame, ns []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		strs = append(strs, s)
		idx[s] = uint64(len(strs) - 1)
		return idx[s]
	}
	for i, s := range strs {
		idx[s] = uint64(i)
	}
	var p protoBuf
	p = p.bytes(fProfileSampleType, protoBuf(nil).varint(fValueTypeType, str("samples")).varint(2, str("count")))
	p = p.bytes(fProfileSampleType, protoBuf(nil).varint(fValueTypeType, str("cpu")).varint(2, str("nanoseconds")))
	funcIDs := map[frame]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var sample protoBuf
		var locs protoBuf
		for _, inlined := range stack {
			locID++
			loc := protoBuf(nil).varint(fLocationID, locID)
			for _, fr := range inlined {
				id, ok := funcIDs[fr]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fr] = id
					p = p.bytes(fProfileFunction, protoBuf(nil).
						varint(fFunctionID, id).varint(fFunctionName, str(fr.fn)).varint(fFunctionFile, str(fr.file)))
				}
				loc = loc.bytes(fLocationLine, protoBuf(nil).varint(fLineFunction, id).varint(2, 10))
			}
			p = p.bytes(fProfileLocation, loc)
			locs = binary.AppendUvarint(locs, locID)
		}
		sample = sample.bytes(fSampleLocation, locs)
		if i == 0 {
			packed := binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(ns[i]))
			sample = sample.bytes(fSampleValue, packed)
		} else {
			sample = sample.varint(fSampleValue, 1).varint(fSampleValue, uint64(ns[i]))
		}
		p = p.bytes(fProfileSample, sample)
	}
	p = p.varint(fProfilePeriod, 10_000_000)
	for _, s := range strs {
		p = p.bytes(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	f := func(fn, file string) []frame { return []frame{{fn, file}} }
	const ms = int64(time.Millisecond)
	cases := []struct {
		stack  [][]frame
		ns     int64
		bucket string
	}{
		{[][]frame{f("pim/internal/netsim.(*Scheduler).fire", "/src/internal/netsim/sched.go"), f("main.main", "main.go")}, 30 * ms, "netsim.sched"},
		{[][]frame{f("pim/internal/netsim.(*wheel).fillDue", "/src/internal/netsim/wheel.go")}, 6 * ms, "netsim.sched"},
		{[][]frame{f("runtime.mallocgc", "malloc.go"), f("pim/internal/core.(*Router).handleJoin", "join.go"),
			f("pim/internal/netsim.(*Network).deliver", "/src/internal/netsim/network.go")}, 20 * ms, "core"},
		{[][]frame{f("runtime.scanobject", "mgcmark.go"), f("runtime.gcBgMarkWorker", "mgc.go")}, 15 * ms, "gc"},
		{[][]frame{f("runtime.mapaccess2", "map.go"), f("main.(*slot).receive", "ledger.go"),
			f("pim/internal/igmp.(*Host).handleData", "host.go")}, 5 * ms, "bench"},
		// One location holding an inlined call: the innermost function wins.
		{[][]frame{{{"pim/internal/packet.Unmarshal", "packet.go"}, {"pim/internal/netsim.(*Network).deliverFrame", "/src/internal/netsim/network.go"}}}, 7 * ms, "packet"},
		{[][]frame{f("pim/internal/netsim.(*Node).Send", "/src/internal/netsim/network.go")}, 4 * ms, "netsim.deliver"},
		{[][]frame{f("runtime.futex", "os_linux.go"), f("runtime.mstart", "proc.go")}, 3 * ms, "other"},
		{[][]frame{f("pim/internal/border.(*Router).relay", "border.go")}, 2 * ms, "other"},
	}
	var stacks [][][]frame
	var ns []int64
	want := map[string]int64{}
	var wantTotal int64
	for _, c := range cases {
		stacks = append(stacks, c.stack)
		ns = append(ns, c.ns)
		want[c.bucket] += c.ns
		wantTotal += c.ns
	}
	samples, err := parseProfile(fixedProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(cases))
	}
	got, total := attribute(samples)
	if total != wantTotal {
		t.Fatalf("total = %d, want %d", total, wantTotal)
	}
	var sum int64
	for b, n := range got {
		sum += n
		if n != want[b] {
			t.Errorf("bucket %s = %d, want %d", b, n, want[b])
		}
	}
	if sum != total {
		t.Errorf("buckets sum to %d, profile total %d", sum, total)
	}
	if len(got) != len(cpuBuckets) {
		t.Errorf("attribute returned %d buckets, want all %d", len(got), len(cpuBuckets))
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for st := time.Now(); time.Since(st) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, total := attribute(samples)
	var sum int64
	for _, n := range got {
		sum += n
	}
	if total <= 0 || sum != total {
		t.Fatalf("total %d, bucket sum %d (x=%d)", total, sum, x)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0xff}) // sample field claiming 255 bytes
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated message decoded without error")
	}
}
