package stat4p4

import (
	"fmt"
	"slices"

	"stat4/internal/p4"
)

// Every digest the emitted program pushes has the shape
// [slot, payload…, timestamp ns]; the ID selects the payload.

// DigestAnomaly is the digest ID of mean+kσ anomaly alerts. Payload: the
// offending value (interval count, counter, or flow key's count), N·x, and
// the threshold it exceeded. A measure row with an alert of its own carries
// that digest's layout.
const DigestAnomaly = 1

// digestLayout mirrors one ID's EmitDigest calls: the alert kind and the
// payload field names.
type digestLayout struct {
	id     int
	kind   string
	fields []string
}

var anomalyDigest = &digestLayout{DigestAnomaly, "anomaly", []string{"value", "n_times_x", "threshold"}}

// digestLayoutOf finds the layout of an ID: the anomaly digest's, or a
// measure row's.
func digestLayoutOf(id int) *digestLayout {
	if id == DigestAnomaly {
		return anomalyDigest
	}
	for _, m := range measures {
		if m.digest != nil && m.digest.id == id {
			return m.digest
		}
	}
	return nil
}

// AlertKind is the Alert.Kind a binding of the kind raises: its measure's
// own digest's, else the anomaly digest's.
func AlertKind(kind string) string {
	if k := findKind(kind); k != nil && k.needs != nil && k.needs.digest != nil {
		return k.needs.digest.kind
	}
	return anomalyDigest.kind
}

// Alert is a decoded digest. Fields names the payload values in wire order;
// Values aliases the digest's own storage.
type Alert struct {
	Kind   string // the layout's: "anomaly", or a measure row's digest kind
	Slot   uint64
	TsNs   uint64
	Fields []string
	Values []uint64
}

// Value is the payload value named field, if the layout has one.
func (a Alert) Value(field string) (uint64, bool) {
	if i := slices.Index(a.Fields, field); i >= 0 {
		return a.Values[i], true
	}
	return 0, false
}

// DecodeDigest names a digest's values by its ID's layout. An unknown ID or
// a record shorter than its layout is an error, never an index panic.
func DecodeDigest(d p4.Digest) (Alert, error) {
	lay := digestLayoutOf(d.ID)
	if lay == nil {
		return Alert{}, fmt.Errorf("stat4p4: unknown digest id %d", d.ID)
	}
	n := len(lay.fields)
	if len(d.Values) < n+2 {
		return Alert{}, fmt.Errorf("stat4p4: %s digest carries %d values, want %d", lay.kind, len(d.Values), n+2)
	}
	return Alert{
		Kind: lay.kind, Slot: d.Values[0], TsNs: d.Values[n+1],
		Fields: lay.fields, Values: d.Values[1 : n+1],
	}, nil
}
