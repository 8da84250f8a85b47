package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// Every digest the emitted program pushes has the shape
// [slot, payload…, timestamp ns]; the ID selects the payload.
const (
	// DigestAnomaly is the digest ID of mean+kσ anomaly alerts. Payload:
	// the offending value (interval count, counter, or flow key's count),
	// N·x, and the threshold it exceeded.
	DigestAnomaly = 1
	// DigestEntropy is the digest ID of entropy-collapse alerts. Payload:
	// total observations T, scaled entropy H·T, scaled threshold h0·T.
	DigestEntropy = 2
	// DigestHeavyHitter is the digest ID emitted when the recirculation pass
	// promotes a new candidate flow into the heavy-hitter table. Payload:
	// the flow key.
	DigestHeavyHitter = 3
)

// digestLayouts mirrors the EmitDigest calls of actions.go, entropy.go and
// heavyhitter.go: the alert kind and the payload field names per ID.
var digestLayouts = map[int]struct {
	kind   string
	fields []string
}{
	DigestAnomaly:     {"anomaly", []string{"value", "n_times_x", "threshold"}},
	DigestEntropy:     {"entropy", []string{"total", "scaled_entropy", "scaled_threshold"}},
	DigestHeavyHitter: {"heavy-hitter", []string{"key"}},
}

// Alert is a decoded digest. Fields names the payload values in wire order;
// Values aliases the digest's own storage.
type Alert struct {
	Kind   string // "anomaly", "entropy" or "heavy-hitter"
	Slot   uint64
	TsNs   uint64
	Fields []string
	Values []uint64
}

// DecodeDigest names a digest's values by its ID's layout. An unknown ID or
// a record shorter than its layout is an error, never an index panic.
func DecodeDigest(d p4.Digest) (Alert, error) {
	lay, ok := digestLayouts[d.ID]
	if !ok {
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
