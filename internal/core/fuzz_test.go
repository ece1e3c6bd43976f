package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"ftcsn/internal/fault"
)

var fuzzNetOnce = sync.OnceValues(func() (*Network, error) {
	return Build(DefaultParams(1))
})

// FuzzBatchedMajorityAccess drives the word-parallel certifier against the
// per-terminal BFS oracle under fuzzed mask sequences. The network is
// DefaultParams(1) — n=4 terminals, NOT divisible by 64, so every run
// exercises a partial lane strip. Input encoding: byte 0 picks the strip
// width (bits 0-5: 1..64 lanes) and the mask shape (bit 6); the rest are
// records of 3 bytes (idLo, idHi, op). Under the repaired shape a record
// sets an edge's state (op mod 3) and MaskUpdater keeps the masks
// current. Under the loose shape (nil EdgeOK, the shape
// TestQuickAccessMonotoneInMasks builds) it discards a non-terminal
// vertex (op bit 0 set) or restores it, and the traversal bytes are
// rebuilt. After each record the masks are recertified both ways and the
// reports must be bit-identical.
func FuzzBatchedMajorityAccess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})                                     // width 1
	f.Add([]byte{0x3F, 0x05, 0x00, 0x01})                   // width 64, one open edge
	f.Add([]byte{0x06, 0x00, 0x00, 0x02, 0x10, 0x00, 0x01}) // width 7, closed + open
	f.Add([]byte{
		0x02, // width 3: partial strips even for n=4
		0x40, 0x01, 0x02, 0x41, 0x01, 0x01, 0x42, 0x01, 0x02,
		0x40, 0x01, 0x00, 0xff, 0xff, 0x01,
	})
	f.Add([]byte{ // width 7, loose: three discards, one restored
		0x46,
		0x09, 0x00, 0x01, 0x21, 0x00, 0x01, 0x33, 0x00, 0x01, 0x21, 0x00, 0x00,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := fuzzNetOnce()
		if err != nil {
			t.Skip(err)
		}
		g := nw.G
		nE := int32(g.NumEdges())
		nV := int32(g.NumVertices())

		width, loose := 64, false
		if len(data) > 0 {
			width = int(data[0]&0x3F) + 1
			loose = data[0]&0x40 != 0
			data = data[1:]
		}
		inst := fault.NewInstance(g)
		mu := NewMaskUpdater(g)
		ac := NewAccessChecker(nw)
		ac.lanes = width
		oracle := newAccessOracle(nw)
		var m Masks
		mu.Init(inst, &m)
		if loose {
			m.EdgeOK = nil
		}

		var word, bfs MajorityReport
		check := func(step int) {
			t.Helper()
			nw.MajorityAccessInto(ac, m, &word)
			oracle.majorityAccess(m, &bfs)
			if why, ok := reportsEqual(&word, &bfs); !ok {
				t.Fatalf("step %d (width %d, loose %v): word-parallel vs BFS: %s", step, width, loose, why)
			}
		}
		check(-1)
		for i := 0; i+2 < len(data); i += 3 {
			id := int32(binary.LittleEndian.Uint16(data[i:]))
			if loose {
				v := id % nV
				if ok := data[i+2]&1 == 0; !g.IsTerminal(v) && m.VertexOK[v] != ok {
					m.VertexOK[v] = ok
					m.OutAllowed = g.BuildOutAllowed(nil, m.VertexOK, m.OutAllowed)
					check(i)
				}
				continue
			}
			e := id % nE
			s := fault.State(data[i+2] % 3)
			if inst.Edge[e] != s {
				inst.SetState(e, s)
				mu.Apply(inst, &m, []int32{e})
				check(i)
			}
		}
	})
}

// FuzzIncrementalRepairMasks drives MaskUpdater with random edge-state
// flip sequences — applied one flip at a time and in multi-entry batches,
// including edges flipped more than once per batch — and asserts the
// incrementally maintained masks (VertexOK, EdgeOK, and the CSR-aligned
// traversal bytes) always equal a from-scratch RepairMasksInto
// rebuild. Input encoding: records of 3 bytes (edgeLo, edgeHi, op); op
// bits 0-1 pick the new state (mod 3), bit 2 flushes the accumulated
// batch through Apply, bit 3 forces a full cross-check.
func FuzzIncrementalRepairMasks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x05, 0x00, 0x00, 0x04})
	f.Add([]byte{
		0x10, 0x00, 0x01, 0x11, 0x00, 0x02, 0x12, 0x00, 0x04,
		0x10, 0x00, 0x00, 0x10, 0x00, 0x06,
	})
	f.Add([]byte{
		0x40, 0x01, 0x02, 0x40, 0x01, 0x01, 0x40, 0x01, 0x00, 0x40, 0x01, 0x0e,
		0xff, 0xff, 0x05, 0x00, 0x01, 0x09,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := fuzzNetOnce()
		if err != nil {
			t.Skip(err)
		}
		g := nw.G
		nE := int32(g.NumEdges())

		inst := fault.NewInstance(g)
		mu := NewMaskUpdater(g)
		var m Masks
		mu.Init(inst, &m)

		check := func(step int) {
			t.Helper()
			var want Masks
			RepairMasksInto(inst, &want)
			for v := range want.VertexOK {
				if m.VertexOK[v] != want.VertexOK[v] {
					t.Fatalf("step %d: VertexOK[%d] = %v, rebuild says %v", step, v, m.VertexOK[v], want.VertexOK[v])
				}
			}
			for e := range want.EdgeOK {
				if m.EdgeOK[e] != want.EdgeOK[e] {
					t.Fatalf("step %d: EdgeOK[%d] = %v, rebuild says %v", step, e, m.EdgeOK[e], want.EdgeOK[e])
				}
			}
			wantOut := g.BuildOutAllowed(want.EdgeOK, want.VertexOK, nil)
			for i := range wantOut {
				if m.OutAllowed[i] != wantOut[i] {
					t.Fatalf("step %d: OutAllowed[%d] = %#x, rebuild says %#x", step, i, m.OutAllowed[i], wantOut[i])
				}
			}
		}

		var diff []int32
		flush := func(step int) {
			if len(diff) == 0 {
				return
			}
			mu.Apply(inst, &m, diff)
			diff = diff[:0]
			_ = step
		}
		for i := 0; i+2 < len(data); i += 3 {
			e := int32(binary.LittleEndian.Uint16(data[i:])) % nE
			op := data[i+2]
			s := fault.State(op & 3 % 3)
			if inst.Edge[e] != s {
				inst.SetState(e, s)
				diff = append(diff, e)
			}
			if op&4 != 0 {
				flush(i)
			}
			if op&8 != 0 {
				flush(i)
				check(i)
			}
		}
		flush(len(data))
		check(len(data))
	})
}
