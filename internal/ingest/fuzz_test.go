package ingest

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"stat4/internal/ring"
)

// chunkReader hands out at most n bytes per Read, so records straddle reads
// the way they straddle socket reads.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(r.n, len(p))], r.b)
	r.b = r.b[n:]
	return n, nil
}

// wireRecords is the protocol's reference reading of a byte stream: how many
// whole records lead it, and whether it ends cleanly after the last one.
func wireRecords(wire []byte) (records uint64, clean bool) {
	for len(wire) >= ring.FrameHdrLen {
		ln := binary.LittleEndian.Uint32(wire[10:14])
		if ln > ring.MaxFrameLen || int(ln) > len(wire)-ring.FrameHdrLen {
			return records, false
		}
		wire = wire[ring.FrameHdrLen+int(ln):]
		records++
	}
	return records, len(wire) == 0
}

// FuzzServeConn feeds arbitrary bytes through ServeConn on a live engine, in
// arbitrary read sizes: it never panics, returns exactly the records that
// lead the stream (with an error unless the stream ends cleanly after them),
// and after Stop every record is on the books — consumed by the datapath or
// counted shed. Each input runs twice on two shards: once with the consumer
// keeping up, once with it held inside Do until the stream has been read, so
// the whole stream reaches it as a backlog to coalesce. `make fuzz-smoke`
// gives it a 10s budget.
func FuzzServeConn(f *testing.F) {
	var good bytes.Buffer
	for i, fr := range testFrames(5) {
		_ = WriteRecord(&good, uint64(i+1), 1, fr)
	}
	f.Add(good.Bytes(), uint8(0))
	f.Add(good.Bytes()[:good.Len()-3], uint8(7))                      // truncated frame
	f.Add(append(good.Bytes(), 1, 2, 3), uint8(255))                  // truncated header
	f.Add(append(good.Bytes(), make([]byte, 14)...), uint8(3))        // empty frame
	f.Add(append(make([]byte, 10), 0xff, 0xff, 0xff, 0xff), uint8(1)) // impossible length
	var big bytes.Buffer
	_ = WriteRecord(&big, 1, 1, make([]byte, 3000)) // larger than a slab block: shed
	big.Write(good.Bytes())
	f.Add(big.Bytes(), uint8(20))

	f.Fuzz(func(t *testing.T, wire []byte, chunk uint8) {
		want, clean := wireRecords(wire)
		for _, hold := range []bool{false, true} {
			sr := newBoundRuntime(t, 2, 0)
			defer sr.Close()
			e := New(sr, Config{BlockSize: 2048}) // small blocks put the oversized-frame shed within the fuzzer's reach
			gate := make(chan struct{})
			if hold {
				holding := make(chan struct{})
				go e.Do(func() { close(holding); <-gate })
				<-holding
			}
			n, err := e.ServeConn(&chunkReader{b: wire, n: 1 + 37*int(chunk)})
			close(gate)
			e.Stop()

			if n != want {
				t.Fatalf("hold %v: served %d records, the stream leads with %d", hold, n, want)
			}
			if clean != (err == nil) {
				t.Fatalf("hold %v: clean end %v, error %v", hold, clean, err)
			}
			_, shed := e.Shed()
			if got := e.Frames() + shed; got != n {
				t.Fatalf("hold %v: consumed %d + shed %d != offered %d", hold, e.Frames(), shed, n)
			}
			if in := e.Stats().Switch.PktsIn; in != e.Frames() {
				t.Fatalf("hold %v: datapath saw %d frames, consumer fed %d", hold, in, e.Frames())
			}
		}
	})
}
