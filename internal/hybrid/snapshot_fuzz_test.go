package hybrid

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/rsn"
)

// hugeCountSnapshot is a corrupt snapshot with a valid schema and
// wiring hash for nw followed by a node count near 2^31 and no values:
// about 140 bytes that once made InitFrom allocate tens of gigabytes.
func hugeCountSnapshot(nw *rsn.Network) []byte {
	var b []byte
	for _, v := range []string{SnapshotSchema, rsn.CanonicalHash(nw)} {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	b = binary.AppendUvarint(b, 1<<31-1)
	return append(b, 0, 0, 0, 0)
}

// TestSnapshotInitFromRejectsHugeCount is the regression test for the
// unbounded allocation: the count must be checked against the bytes
// that remain before anything is allocated for it.
func TestSnapshotInitFromRejectsHugeCount(t *testing.T) {
	_, nw := catalogCase(t, "BasicSCB", 0.15, 7)
	data := hugeCountSnapshot(nw)
	if len(data) > 160 {
		t.Fatalf("crafted snapshot is %d bytes", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := InitFrom(nw, data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("InitFrom accepted a node count the bytes cannot hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting the snapshot allocated %d bytes", got)
	}
}

// FuzzSnapshotInitFrom feeds arbitrary bytes to the snapshot decoder
// (session files on the disk tier reach it) against a fixed network.
// It must never panic, never allocate beyond what the input can
// describe, and whatever it accepts must survive an Encode/InitFrom
// round trip unchanged. CI runs it with a bounded -fuzztime as a smoke
// test.
func FuzzSnapshotInitFrom(f *testing.F) {
	a, nw := catalogCase(f, "BasicSCB", 0.15, 7)
	snap, err := a.Snapshot(nw)
	if err != nil {
		f.Fatal(err)
	}
	valid := snap.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(hugeCountSnapshot(nw))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := InitFrom(nw, data)
		if err != nil {
			return
		}
		if 2*s.Nodes() > len(data) {
			t.Fatalf("decoded %d nodes from %d bytes", s.Nodes(), len(data))
		}
		again, err := InitFrom(nw, s.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		for i := range s.attrIn {
			if again.attrIn[i] != s.attrIn[i] || again.attrOut[i] != s.attrOut[i] {
				t.Fatalf("round trip changed node %d", i)
			}
		}
	})
}
