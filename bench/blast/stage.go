package main

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// span is one traced interval around a call into a layer. Spans are kept in
// memory and written out when the run ends; a span's index is its id.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // -1 for the root
	Batch   int    `json:"batch"`  // batch id shared across layers, -1 for a whole pass
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: batch, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples are one staged layer's passes, in nanoseconds per frame. Derived
// rows subtract pass by pass before taking the median, so a slow stretch of
// the host that hit both layers of a pair cancels.
type samples struct {
	wall []float64 // the caller's clock around the calls into the layer
	cpu  []float64 // process CPU time: shard workers and the consumer included
}

// over is the median per-pass excess of a over b.
func over(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// layer is one staged probe: body is the timed call into the layer over
// frames [lo, hi) of one batch; feed, for the probes that go through the live
// engine, offers a whole pass itself and opens its own batch spans. pass runs
// before a pass's clocks start.
type layer struct {
	name string
	pass func(lap uint64)
	body func(lo, hi int, lap uint64)
	feed func(parent int, lap uint64) error
}

// stager replays the workload's own frames through one layer at a time and
// keeps every layer's passes by name. Every pass takes a fresh lap of virtual
// time, so a stateful layer sees monotone timestamps however many passes ran
// before.
type stager struct {
	tr     *trace
	n      int // frames per pass, a whole number of batches
	passes int
	spans  *tracer
	root   int
	lap    uint64
	got    map[string]*samples
}

func (s *stager) nextLap() uint64 { s.lap++; return s.lap }

func (s *stager) ts(i int, lap uint64) uint64 { return s.tr.ts[i] + lap*s.tr.lapNs }

func (s *stager) record(name string, wall, cpu time.Duration) {
	sm := s.got[name]
	if sm == nil {
		sm = new(samples)
		s.got[name] = sm
	}
	sm.wall = append(sm.wall, float64(wall)/float64(s.n))
	sm.cpu = append(sm.cpu, float64(cpu)/float64(s.n))
}

// wall and cpu read a layer's median pass.
func (s *stager) wall(name string) float64 { return median(s.got[name].wall) }
func (s *stager) cpu(name string) float64  { return median(s.got[name].cpu) }

// interleaved is for the single-threaded layers, where the caller's clock is
// the CPU spent: each batch goes through every layer in turn, so all of them
// see the same minute-to-minute host. Stateful layers each own their state.
func (s *stager) interleaved(layers ...layer) {
	for p := 0; p < s.passes; p++ {
		lap := s.nextLap()
		pass := s.spans.begin("pass", s.root, -1)
		walls := make([]time.Duration, len(layers))
		for lo := 0; lo < s.n; lo += batchFrames {
			for i, l := range layers {
				id := s.spans.begin(l.name, pass, lo/batchFrames)
				l.body(lo, lo+batchFrames, lap)
				walls[i] += s.spans.end(id)
			}
		}
		s.spans.end(pass)
		for i, l := range layers {
			s.record(l.name, walls[i], walls[i])
		}
	}
}

// alternating is for the layers that fan out to other goroutines and are
// budgeted in process CPU, which getrusage attributes only to a stretch of
// time: the layers take turns a whole pass at a time, and wall is the pass.
func (s *stager) alternating(layers ...layer) error {
	for p := 0; p < s.passes; p++ {
		for _, l := range layers {
			lap := s.nextLap()
			if l.pass != nil {
				l.pass(lap)
			}
			pass := s.spans.begin(l.name, s.root, -1)
			use0 := readUsage()
			if l.feed != nil {
				if err := l.feed(pass, lap); err != nil {
					return err
				}
			} else {
				for lo := 0; lo < s.n; lo += batchFrames {
					id := s.spans.begin(l.name, pass, lo/batchFrames)
					l.body(lo, lo+batchFrames, lap)
					s.spans.end(id)
				}
			}
			cpu := readUsage().sub(use0).cpu
			s.record(l.name, s.spans.end(pass), cpu)
		}
	}
	return nil
}

// pacedReader hands ServeConn the staged records a batch per Read, holding
// back while the window is full, and wraps each batch's decode in a span: the
// interval between handing a batch out and being asked for the next.
type pacedReader struct {
	f      *feeder
	wire   []byte
	off    []int // record offsets, one past the last included
	lo     int   // next record to hand out
	at     int   // bytes of the current batch already handed out
	spans  *tracer
	parent int
	open   int // span of the batch being decoded, -1 for none
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if r.at == 0 {
		if r.open >= 0 {
			r.spans.end(r.open)
			r.open = -1
		}
		if r.lo == len(r.off)-1 {
			return 0, io.EOF
		}
		r.f.admit()
		r.open = r.spans.begin("ingest.serveconn", r.parent, r.lo/batchFrames)
	}
	chunk := r.wire[r.off[r.lo]+r.at : r.off[r.lo+batchFrames]]
	n := copy(p, chunk)
	if r.at += n; n == len(chunk) {
		r.lo, r.at = r.lo+batchFrames, 0
	}
	return n, nil
}
