// Package netem is a small discrete-event network simulator: a virtual
// nanosecond clock, an event scheduler, and node wrappers that connect
// traffic sources, the P4 switch simulator and a controller over links with
// configurable latency. It stands in for the paper's emulated network
// (Figure 6): the case study's claims are about which interval detects a
// spike and how control-plane round trips dominate drill-down latency, both
// of which are functions of virtual time.
//
// The simulator is deliberately minimal — no packet loss, no queuing model,
// no bandwidth shaping — because the reproduced claims depend only on event
// ordering and link latency. Handlers run single-threaded on the caller's
// goroutine inside Run and may schedule further events.
//
// # The engine
//
// Events live in a hierarchical timer wheel: four levels of 256 slots
// covering a 2^32 ns horizon, with an overflow list for timestamps beyond
// it, so scheduling and dispatch are O(1) near the horizon instead of the
// O(log n) sift of a binary heap. Event records are typed — packet arrival,
// frame delivery, digest delivery, stream pump, generic func — and stored in
// a flat slab with a free list, so scheduling a packet through a warm
// simulator allocates nothing (pinned by the zero-alloc tests). It is the
// only engine. The original container/heap engine — one closure per event,
// one event per packet, a fresh copy per delivered frame, digests drained
// from the switch channel — survives as test code (ref_test.go), the
// differential reference: unit, property and fuzz tests require the two to
// produce identical dispatch order (equal-time events run in schedule
// order), identical clocks, and identical digest traces and drill-down logs.
//
// # Frame-buffer lifetime
//
// Delivered frame bytes are pooled. The []byte passed to a Connect deliver
// callback is only valid until the callback returns; the node reclaims the
// buffer immediately afterwards and will reuse it for a later frame. A
// callback that wants to keep the bytes must copy them.
package netem
