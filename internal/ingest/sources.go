package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stat4/internal/packet"
	"stat4/internal/ring"
)

// PlayPcap streams one capture file into the engine on a fresh producer and
// returns the frame count. Frames ingress on port. With wait set the load is
// lossless (AddWait); otherwise frames shed under pressure like any other
// stream. Oversized frames are shed in either mode.
func (e *Engine) PlayPcap(path string, port uint16, wait bool) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	p := e.NewProducer()
	defer p.Close()
	r := packet.NewPcapReader(f)
	var n uint64
	for {
		ts, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		if wait {
			p.AddWait(ts, port, frame)
		} else {
			p.Add(ts, port, frame)
		}
		n++
	}
	if wait {
		p.FlushWait()
	}
	return n, nil
}

// PlayPcapDir plays every *.pcap file under dir (sorted, one after another —
// captures are time-ordered internally, not across files) and returns the
// total frame count.
func (e *Engine) PlayPcapDir(dir string, port uint16, wait bool) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var paths []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".pcap") {
			paths = append(paths, filepath.Join(dir, ent.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return 0, fmt.Errorf("no *.pcap files in %s", dir)
	}
	var total uint64
	for _, p := range paths {
		n, err := e.PlayPcap(p, port, wait)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// PlaySource plays a pcap file or a directory of them, whichever path is.
func (e *Engine) PlaySource(path string, port uint16, wait bool) (uint64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if fi.IsDir() {
		return e.PlayPcapDir(path, port, wait)
	}
	return e.PlayPcap(path, port, wait)
}

// serveBuf sizes ServeConn's reader so that every legal record — header plus
// up to ring.MaxFrameLen frame bytes — fits it whole.
const serveBuf = ring.FrameHdrLen + ring.MaxFrameLen

// ServeConn reads one length-prefixed frame stream (the slab record layout:
// [8]ts_ns [2]port [4]len little-endian, then len frame bytes) into its own
// producer until EOF, and returns how many records it read. Each record is
// peeked whole in the reader's buffer and copied once, from there into the
// slab block. Batches flush at read-idle points, so interactive clients see
// their frames reach the datapath without filling a full batch. Frames shed
// under pressure are counted, not reported per frame — the stream protocol
// has no backchannel.
func (e *Engine) ServeConn(conn io.Reader) (uint64, error) {
	p := e.NewProducer()
	defer p.Close()
	br := bufio.NewReaderSize(conn, serveBuf)
	var n uint64
	for {
		hdr, err := br.Peek(ring.FrameHdrLen)
		if err != nil {
			if len(hdr) == 0 && errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, fmt.Errorf("record %d: truncated header: %w", n, noEOF(err))
		}
		ts := binary.LittleEndian.Uint64(hdr[0:8])
		port := binary.LittleEndian.Uint16(hdr[8:10])
		ln := binary.LittleEndian.Uint32(hdr[10:14])
		if ln > ring.MaxFrameLen {
			return n, fmt.Errorf("record %d: frame length %d exceeds %d", n, ln, ring.MaxFrameLen)
		}
		rec, err := br.Peek(ring.FrameHdrLen + int(ln))
		if err != nil {
			return n, fmt.Errorf("record %d: truncated frame: %w", n, noEOF(err))
		}
		p.Add(ts, port, rec[ring.FrameHdrLen:])
		_, _ = br.Discard(len(rec)) // cannot fail: rec is buffered
		n++
		if br.Buffered() == 0 {
			p.Flush()
		}
	}
}

// noEOF reports an end of stream inside a record as what it is.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteRecord appends one wire/slab frame record to w — the client half of
// the ServeConn protocol.
func WriteRecord(w io.Writer, tsNs uint64, port uint16, frame []byte) error {
	var hdr [ring.FrameHdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], tsNs)
	binary.LittleEndian.PutUint16(hdr[8:10], port)
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}
