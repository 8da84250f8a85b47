// Package ingest is the live ingest plane of the stat4d daemon: any number
// of stream producers (pcap players, socket readers) batch frames into
// pooled slab blocks and hand the batch descriptors through one bounded MPSC
// ring to a single consumer goroutine, which drives the sharded datapath and
// is itself shard 0's data plane (p4.ShardedSwitch.ProcessBatch runs shard 0
// on its caller, every shard for a batch below p4.ForkFrames — up to which
// the consumer coalesces the waiting ring backlog; only shards 1…n−1 have
// worker goroutines).
//
// The plane inherits the backpressure contract of internal/ring: producers
// never block the datapath — when the ring is full or the slab exhausted
// they shed work and count it (Producer.Add), or explicitly opt into waiting
// (Producer.AddWait, for lossless bulk loads like a replay). The consumer
// owns everything downstream of the ring: the ShardedSwitch, the telemetry
// recorders, and the alert store. Control-plane work — metric scrapes,
// register snapshots, table binding updates — is routed onto the consumer
// goroutine with Engine.Do, so it interleaves with batches instead of racing
// them; this is the single-writer discipline the telemetry recorders and the
// merged snapshot reads both rely on.
//
// The wire protocol of Engine.ServeConn is exactly the slab's frame record
// layout ([8]ts_ns [2]port [4]len, little-endian, then the frame bytes), so
// a socket reader validates a header and copies the payload straight from
// its read buffer into a block.
package ingest
