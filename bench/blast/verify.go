package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

// verifyLaps is how much traffic the verify pass pushes before comparing.
const verifyLaps = 2

// reference is what offline replays of the verify laps leave behind, reduced
// to digests so a flow-table-sized snapshot is not held across the timed run
// (it would be benchmark state inside peak_rss_mb).
type reference struct {
	sharded [sha256.Size]byte // merged snapshot of an offline ShardedRuntime
	alerts  uint64            // digests it raised
	// serial is the canonicalised snapshot of a serial Runtime. Merged state
	// equals it for any track at one shard and for frequency tracks at any
	// shard count; a window's scalars are clock-driven per shard, so a
	// two-shard window is pinned by the sharded replay alone.
	serial    [sha256.Size]byte
	hasSerial bool
}

// snapshotHash digests a snapshot's registers (by name, in order) and table
// entries.
func snapshotHash(s *p4.Snapshot) [sha256.Size]byte {
	h := sha256.New()
	names := make([]string, 0, len(s.Registers))
	for name := range s.Registers {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 64<<10)
	for _, name := range names {
		cells := s.Registers[name]
		fmt.Fprintf(h, "reg %s %d\n", name, len(cells))
		for _, c := range cells {
			if buf = binary.LittleEndian.AppendUint64(buf, c); len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
		buf = buf[:0]
	}
	names = names[:0]
	for name := range s.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, e := range s.Entries[name] {
			fmt.Fprintf(h, "entry %s %d %v %d %s %v\n", name, e.ID, e.Match, e.Priority, e.Action, e.Args)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// replayReference feeds the verify laps to a sharded runtime and, where the
// result must match, a serial one - both without ring, slab or socket. Each
// runtime's pages go back to the OS before the next is built: they are
// benchmark state, and peak RSS should be the measured engine's.
func replayReference(w *workload, tr *trace) (reference, error) {
	var ref reference
	sr, err := w.datapath()
	if err != nil {
		return ref, err
	}
	ss := sr.Sharded()
	ss.SetDigestSink(func(p4.Digest) { ref.alerts++ })
	batch := make([]p4.FrameIn, 0, batchFrames)
	for lap := uint64(0); lap < verifyLaps; lap++ {
		for lo := 0; lo < tr.n(); lo += batchFrames {
			batch = tr.frameIns(batch, lo, lo+batchFrames, lap)
			ss.ProcessBatch(batch, nil)
		}
	}
	ref.sharded = snapshotHash(sr.MergedSnapshot())
	slots := sr.FreqSlots()
	sr.Close()
	sr, ss = nil, nil
	debug.FreeOSMemory()

	if ref.hasSerial = w.shards == 1 || w.track == "dst24"; !ref.hasSerial {
		return ref, nil
	}
	lib := w.build()
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return ref, err
	}
	if err := w.bind(rt); err != nil {
		return ref, err
	}
	sw := rt.Switch()
	sw.SetDigestSink(func(p4.Digest) {})
	for lap := uint64(0); lap < verifyLaps; lap++ {
		for i := 0; i < tr.n(); i++ {
			sw.ProcessFrame(tr.ts[i]+lap*tr.lapNs, 1, tr.frame(i))
		}
	}
	snap := sw.Snapshot()
	lib.CanonicalizeSnapshot(snap, slots)
	ref.serial = snapshotHash(snap)
	return ref, nil
}

// check compares the engine, fed the same laps over the socket, against the
// reference.
func (ref *reference) check(e *ingest.Engine) error {
	got := snapshotHash(e.MergedSnapshot())
	if got != ref.sharded {
		return fmt.Errorf("verify: merged snapshot differs from the offline sharded replay")
	}
	if ref.hasSerial && got != ref.serial {
		return fmt.Errorf("verify: merged snapshot differs from the canonicalised serial runtime")
	}
	if _, alerts := e.Alerts(); alerts != ref.alerts {
		return fmt.Errorf("verify: %d alerts, offline sharded replay raised %d", alerts, ref.alerts)
	}
	return nil
}

// ledger balances the engine's books against what the generator offered and
// returns the failed operations: frames shed, parse-rejected or unaccounted.
func ledger(e *ingest.Engine, offered uint64) (failed uint64, err error) {
	st := e.Stats()
	if st.Frames+st.ShedFrames > offered {
		return offered, fmt.Errorf("ledger: consumed %d + shed %d exceeds offered %d", st.Frames, st.ShedFrames, offered)
	}
	if st.Switch.PktsIn != st.Frames {
		return offered, fmt.Errorf("ledger: switch saw %d packets, engine consumed %d", st.Switch.PktsIn, st.Frames)
	}
	failed = offered - st.Frames + st.Switch.ParseErrors
	if failed > 0 {
		err = fmt.Errorf("ledger: offered %d, consumed %d, shed %d, parse errors %d",
			offered, st.Frames, st.ShedFrames, st.Switch.ParseErrors)
	}
	return failed, err
}
