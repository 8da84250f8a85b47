package flowtable

import (
	"fmt"

	"stat4/internal/p4"
)

// Hash-family assignments, shared with the emitted flow-table mode in
// internal/stat4p4 so host and datapath place every key identically: hash 0
// is the admission coin, hash 1 probes the left half, hash 2 the right.
const (
	hashCoin  = 0
	hashLeft  = 1
	hashRight = 2
)

// Config sizes a Table. The zero value is invalid; use New.
type Config struct {
	// Buckets is the total bucket count, a power of two ≥ 4, split into a
	// left and a right half of Buckets/2 each.
	Buckets int
	// EpochShift sets the expiry clock: epoch id = ts >> EpochShift
	// (2^30 ns ≈ 1.07 s epochs at shift 30).
	EpochShift uint
	// TTL is how many epochs an entry stays live after its last touch
	// (≥ 1). An entry last stamped in epoch e is reclaimable from epoch
	// e+TTL on.
	TTL uint64
	// SampleShift arms the 2^-SampleShift admission coin for new keys
	// (0 = admit every new key).
	SampleShift uint
}

// Outcome classifies one Touch.
type Outcome uint8

const (
	// Hit: the key already owned a live bucket; its count advanced.
	Hit Outcome = iota
	// Admitted: the key claimed an empty bucket.
	Admitted
	// Evicted: the key claimed a bucket by expelling an expired entry.
	Evicted
	// Rejected: both candidate buckets are live with other keys.
	Rejected
	// Shed: a new key lost the admission coin.
	Shed
)

// String names the outcome for test and log output.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Admitted:
		return "admitted"
	case Evicted:
		return "evicted"
	case Rejected:
		return "rejected"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Stats is the admission ledger. Two invariants hold after any Touch
// sequence (and are enforced by the property tests):
//
//	Hits + Admitted + Rejected + Shed == Offered
//	Admitted == Occupied() + Evicted
//
// Admitted counts every claim, whether of an empty bucket or of an expired
// one; Evicted counts the expirations those claims reclaimed.
type Stats struct {
	Offered  uint64
	Hits     uint64
	Admitted uint64
	Evicted  uint64
	Rejected uint64
	Shed     uint64
}

// Table is a fixed-capacity 2-left flow table over flat register-model
// arrays: keys, epoch stamps (0 = empty; otherwise last-touch epoch + 1) and
// counts. All per-packet operations are allocation-free and touch exactly
// two buckets.
type Table struct {
	keys   []uint64
	stamps []uint64
	counts []uint64

	halfMask uint64 // Buckets/2 − 1
	half     uint64 // Buckets/2
	epShift  uint
	ttl      uint64
	coinMask uint64 // 2^SampleShift − 1 (0 = coin always wins)

	occupied uint64
	stats    Stats
}

// New builds a table. It panics on a malformed Config, since sizing is
// compile-time configuration (matching stat4p4.Build's contract).
func New(cfg Config) *Table {
	if cfg.Buckets < 4 || cfg.Buckets&(cfg.Buckets-1) != 0 {
		panic(fmt.Sprintf("flowtable: Buckets must be a power of two ≥ 4, have %d", cfg.Buckets))
	}
	if cfg.TTL == 0 {
		panic("flowtable: TTL must be ≥ 1 epoch")
	}
	if cfg.EpochShift >= 64 {
		panic(fmt.Sprintf("flowtable: EpochShift %d out of range", cfg.EpochShift))
	}
	if cfg.SampleShift > 32 {
		panic(fmt.Sprintf("flowtable: SampleShift %d out of range", cfg.SampleShift))
	}
	return &Table{
		keys:     make([]uint64, cfg.Buckets),
		stamps:   make([]uint64, cfg.Buckets),
		counts:   make([]uint64, cfg.Buckets),
		halfMask: uint64(cfg.Buckets/2) - 1,
		half:     uint64(cfg.Buckets / 2),
		epShift:  cfg.EpochShift,
		ttl:      cfg.TTL,
		coinMask: uint64(1)<<cfg.SampleShift - 1,
	}
}

// Buckets returns the table capacity.
func (t *Table) Buckets() int { return len(t.keys) }

// probes returns the key's two candidate buckets: left half by hash 1,
// right half by hash 2, high words masked — the exact indexes the emitted
// program computes.
//
//stat4:datapath
func (t *Table) probes(key uint64) (left, right uint64) {
	left = (p4.HashValue(hashLeft, key) >> 32) & t.halfMask
	right = t.half + ((p4.HashValue(hashRight, key) >> 32) & t.halfMask)
	return left, right
}

// live reports whether bucket i holds a fresh entry at epoch ep. stamp 0 is
// empty; a nonzero stamp s is live while (ep+1) − s < TTL. The subtraction
// wraps for s = 0, but that case is excluded first.
//
//stat4:datapath
func (t *Table) live(i, ep uint64) bool {
	s := t.stamps[i]
	return s != 0 && ep+1-s < t.ttl
}

// coin reports whether the admission coin lands heads for this packet: the
// timestamp folds into the hash input so every packet of a key is an
// independent 2^-SampleShift trial, and the product's high word feeds the
// mask (multiply-shift low bits are near-bijective and would bias the coin).
//
//stat4:datapath
func (t *Table) coin(key, ts uint64) bool {
	return (p4.HashValue(hashCoin, key+ts)>>32)&t.coinMask == 0
}

// Touch records one packet of key at virtual time ts: a lookup, an admission
// (possibly reclaiming an expired bucket) or a shed/reject, plus the count
// and stamp updates. It returns the bucket index the packet landed in (−1
// for Rejected/Shed) and the outcome. Exactly two buckets are probed and
// nothing is allocated, whatever the occupancy.
//
//stat4:datapath
func (t *Table) Touch(key, ts uint64) (int, Outcome) {
	t.stats.Offered++
	ep := ts >> t.epShift //stat4:exempt:shiftconst EpochShift is compile-time configuration; the emitted program bakes it as a RefConst
	l, r := t.probes(key)

	// Hit paths: the key owns a live bucket.
	if t.keys[l] == key && t.live(l, ep) {
		t.counts[l]++
		t.stamps[l] = ep + 1
		t.stats.Hits++
		return int(l), Hit
	}
	if t.keys[r] == key && t.live(r, ep) {
		t.counts[r]++
		t.stamps[r] = ep + 1
		t.stats.Hits++
		return int(r), Hit
	}

	// Miss: the 2^-k front-end sheds new keys before any state moves.
	if !t.coin(key, ts) {
		t.stats.Shed++
		return -1, Shed
	}

	// Claim order: the key's own stale bucket first (so an expired flow
	// restarts in place instead of leaving a dead duplicate), then the
	// d-left discipline — empty-left, empty-right, expired-left,
	// expired-right. A deterministic order keeps placements reproducible,
	// which the fuzz target pins.
	if t.keys[l] == key && t.stamps[l] != 0 {
		return t.claim(l, key, ep, Evicted)
	}
	if t.keys[r] == key && t.stamps[r] != 0 {
		return t.claim(r, key, ep, Evicted)
	}
	if t.stamps[l] == 0 {
		return t.claim(l, key, ep, Admitted)
	}
	if t.stamps[r] == 0 {
		return t.claim(r, key, ep, Admitted)
	}
	if !t.live(l, ep) {
		return t.claim(l, key, ep, Evicted)
	}
	if !t.live(r, ep) {
		return t.claim(r, key, ep, Evicted)
	}
	t.stats.Rejected++
	return -1, Rejected
}

// claim takes bucket i for key at epoch ep, reclaiming an expired occupant
// when out == Evicted.
//
//stat4:datapath
func (t *Table) claim(i, key, ep uint64, out Outcome) (int, Outcome) {
	if out == Evicted {
		t.stats.Evicted++
	} else {
		t.occupied++
	}
	t.keys[i] = key
	t.stamps[i] = ep + 1
	t.counts[i] = 1
	t.stats.Admitted++
	return int(i), out
}

// Lookup returns the key's count if it owns a live bucket at ts. It mutates
// nothing — no stamp refresh, no ledger entry — and probes two buckets.
//
//stat4:datapath
func (t *Table) Lookup(key, ts uint64) (count uint64, ok bool) {
	ep := ts >> t.epShift //stat4:exempt:shiftconst EpochShift is compile-time configuration; the emitted program bakes it as a RefConst
	l, r := t.probes(key)
	if t.keys[l] == key && t.live(l, ep) {
		return t.counts[l], true
	}
	if t.keys[r] == key && t.live(r, ep) {
		return t.counts[r], true
	}
	return 0, false
}

// Occupied returns the number of buckets holding an entry, live or expired
// (expired entries are capacity pending lazy reclamation, not free space).
func (t *Table) Occupied() int { return int(t.occupied) }

// Live counts the entries still fresh at ts — a control-plane scan.
func (t *Table) Live(ts uint64) int {
	ep := ts >> t.epShift //stat4:exempt:shiftconst EpochShift is compile-time configuration; the emitted program bakes it as a RefConst
	n := 0
	for i := range t.stamps {
		if t.live(uint64(i), ep) {
			n++
		}
	}
	return n
}

// Stats returns the admission ledger.
func (t *Table) Stats() Stats { return t.stats }

// Entry is one occupied bucket as the control plane reads it.
type Entry struct {
	Key   uint64
	Count uint64
	// Stamp is the entry's last-touch epoch + 1.
	Stamp uint64
}

// Each calls fn for every occupied bucket (live or expired), in bucket
// order. Control-plane only.
func (t *Table) Each(fn func(e Entry)) {
	for i, s := range t.stamps {
		if s != 0 {
			fn(Entry{Key: t.keys[i], Count: t.counts[i], Stamp: s})
		}
	}
}

// Reset clears all buckets and the ledger.
func (t *Table) Reset() {
	for i := range t.keys {
		t.keys[i], t.stamps[i], t.counts[i] = 0, 0, 0
	}
	t.occupied = 0
	t.stats = Stats{}
}

// MemoryCells returns the register-model footprint: a key, a stamp and a
// count cell per bucket. Compare with one dense counter per possible key.
func (t *Table) MemoryCells() int { return 3 * len(t.keys) }
