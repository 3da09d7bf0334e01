package fleet

import (
	"encoding/binary"
	"slices"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/net"
)

// importRows encodes TableWrite rows as fuzz input: per row an index
// byte, a word-count byte, then the words little-endian.
func importRows(rows [][]uint32, index func(i int) byte) []byte {
	var out []byte
	for i, row := range rows {
		out = append(out, index(i), byte(len(row)))
		for _, w := range row {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out
}

// FuzzFlowImportRows drives the connection-table import (the TableWrite
// sink a rebalance move's pre-copy and delta frames land in, and that
// the corrupt-delta fault mangles on purpose) with arbitrary row
// sequences. It must never panic, must reassemble exactly the rows a
// reference model accepts, and may restore only when the rows since
// the last row 0 form exactly the framed length, after which the table
// holds every entry of the frame that fit.
func FuzzFlowImportRows(f *testing.F) {
	entries := make([]apps.ConnEntry, 60)
	for i := range entries {
		entries[i] = apps.ConnEntry{
			Key: net.FlowKey{
				SrcIP: net.IPv4(172, 16, 0, byte(i)), DstIP: net.IPv4(20, 0, 0, 1),
				Proto: net.ProtoTCP, SrcPort: uint16(1024 + i), DstPort: 80,
			},
			Backend: backends(migrationPool)[i%8],
		}
	}
	inOrder := func(i int) byte { return byte(i) }
	frame := apps.EncodeFlowSnapshot(entries)
	var small [][]uint32
	for lo := 0; lo < len(frame); lo += 37 {
		small = append(small, frame[lo:min(lo+37, len(frame))])
	}
	f.Add(importRows(small, inOrder))
	f.Add(importRows(cmdif.SplitRows(apps.EncodeFlowSnapshot(entries[:3])), inOrder))
	corrupt := slices.Clone(frame)
	corrupt[0] ^= 0xDEADBEEF
	f.Add(importRows([][]uint32{corrupt[:37], corrupt[37:]}, inOrder))
	f.Add(importRows([][]uint32{frame[:37], frame[:37], frame[37:]}, func(i int) byte { return byte(min(i, 1)) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const capacity = 16
		fs := &flowState{table: apps.NewFlowTable(capacity)}
		var buf []uint32
		var next uint32
		for len(raw) >= 2 {
			index, n := uint32(raw[0]%8), int(raw[1])
			raw = raw[2:]
			row := make([]uint32, min(n, len(raw)/4))
			for i := range row {
				row[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
			raw = raw[4*len(row):]

			// The reference reassembly: row 0 restarts the frame, any
			// other row must be the next one.
			if index == 0 {
				buf, next = buf[:0], 0
			}
			inSeq := index == next
			if inSeq {
				buf, next = append(buf, row...), next+1
			}
			fs.restored, fs.dropped = -1, -1
			err := fs.importRow(index, row)
			if !slices.Equal(fs.importBuf, buf) || fs.importNext != next {
				t.Fatalf("row %d: reassembled %d words (next %d), model %d (next %d)",
					index, len(fs.importBuf), fs.importNext, len(buf), next)
			}
			if !inSeq && err == nil {
				t.Fatalf("row %d accepted out of order (want %d)", index, next)
			}
			total, herr := apps.FlowSnapshotWords(buf)
			decoded, derr := apps.DecodeFlowSnapshot(buf)
			complete := inSeq && herr == nil && len(buf) == total && derr == nil
			if restored := fs.restored != -1; restored != complete {
				t.Fatalf("row %d: restored %v with %d of %d framed words (header err %v, decode err %v)",
					index, restored, len(buf), total, herr, derr)
			}
			if !complete {
				continue
			}
			if err != nil {
				t.Fatalf("row %d: complete frame rejected: %v", index, err)
			}
			if fs.restored+fs.dropped != len(decoded) {
				t.Fatalf("restore of %d entries reported %d added, %d dropped", len(decoded), fs.restored, fs.dropped)
			}
			for _, e := range decoded {
				if _, ok := fs.table.Peek(e.Key); !ok && fs.table.Len() < capacity {
					t.Fatalf("restored entry %v missing from a table with room", e.Key)
				}
			}
		}
	})
}
