package ingest

import (
	"io"

	"stat4/internal/p4"
)

// Stats is one consistent cut of the engine's health, taken between batches.
type Stats struct {
	Frames      uint64 `json:"frames"`
	Batches     uint64 `json:"batches"`
	ShedBatches uint64 `json:"shed_batches"`
	ShedFrames  uint64 `json:"shed_frames"`
	RingDepth   uint64 `json:"ring_depth"`
	RingCap     uint64 `json:"ring_cap"`
	BlocksInUse uint64 `json:"blocks_in_use"`
	AlertsTotal uint64 `json:"alerts_total"`

	Switch   p4.Stats `json:"switch"`
	PerShard []uint64 `json:"per_shard_pkts_in"`
}

// Stats snapshots the ingest and datapath counters on the consumer.
func (e *Engine) Stats() Stats {
	var s Stats
	e.Do(func() {
		s = Stats{
			Frames:      e.frames.Load(),
			Batches:     e.batches.Load(),
			ShedBatches: e.shedBatches.Load(),
			ShedFrames:  e.shedFrames.Load(),
			RingDepth:   uint64(e.ring.Len()),
			RingCap:     uint64(e.ring.Cap()),
			BlocksInUse: e.slab.InUse(),
			AlertsTotal: e.alertTotal,
			Switch:      e.ss.Stats(),
		}
		for i := 0; i < e.ss.NumShards(); i++ {
			s.PerShard = append(s.PerShard, e.ss.Shard(i).Stats().PktsIn)
		}
	})
	return s
}

// WriteProm refreshes the merged telemetry view and renders the exposition,
// all on the consumer so the scrape never races a batch.
func (e *Engine) WriteProm(w io.Writer) error {
	var err error
	e.Do(func() {
		e.sp.Refresh()
		err = e.reg.WriteProm(w)
	})
	return err
}

// WriteJSON is WriteProm for the JSON snapshot rendering.
func (e *Engine) WriteJSON(w io.Writer) error {
	var err error
	e.Do(func() {
		e.sp.Refresh()
		err = e.reg.WriteJSON(w)
	})
	return err
}

// MergedSnapshot reads the canonical merged register snapshot between
// batches.
func (e *Engine) MergedSnapshot() *p4.Snapshot {
	var snap *p4.Snapshot
	e.Do(func() { snap = e.sr.MergedSnapshot() })
	return snap
}

// Alerts copies out the retained most-recent digests, oldest first, plus the
// all-time total.
func (e *Engine) Alerts() (recent []p4.Digest, total uint64) {
	e.Do(func() {
		total = e.alertTotal
		if len(e.alerts) < cap(e.alerts) {
			recent = append(recent, e.alerts...)
			return
		}
		recent = append(recent, e.alerts[e.alertNext:]...)
		recent = append(recent, e.alerts[:e.alertNext]...)
	})
	return recent, total
}
