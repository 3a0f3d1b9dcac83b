package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call: a root span per request the benchmark sends,
// child spans around the in-process calls made on its behalf. Spans of one
// request share Req; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; dump writes them out when the run ends.
// Spans are recorded only in traced runs, and only while enabled, so an
// untraced phase of a traced run can measure the overhead.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	enabled bool
}

func newTracer(enabled bool) *tracer {
	t := &tracer{t0: time.Now(), enabled: enabled}
	t.on.Store(enabled)
	return t
}

// pause stops or resumes recording in a traced run.
func (t *tracer) pause(paused bool) { t.on.Store(t.enabled && !paused) }

func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if !t.on.Load() {
		return 0
	}
	id := t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	s := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// root records a request's root span and returns its id (0 when off).
func (t *tracer) root(name string, start, end time.Time) int64 {
	return t.add(name, 0, 0, start, end)
}

// child records a span caused by parent within request req.
func (t *tracer) child(name string, parent, req int64, start, end time.Time) {
	t.add(name, parent, req, start, end)
}

// reserve allocates a root id before the root's interval is known, so
// children recorded during the call can point at it; finish records it.
func (t *tracer) reserve() int64 {
	if !t.on.Load() {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) finish(id int64, name string, start, end time.Time) {
	if id == 0 || !t.on.Load() {
		return
	}
	s := span{Name: name, ID: id, Req: id, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes is the mean self time in microseconds per span name: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	total := map[string]float64{}
	count := map[string]int{}
	for _, s := range spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		total[s.Name] += float64(self) / 1e3
		count[s.Name]++
	}
	out := make(map[string]float64, len(total))
	for name, sum := range total {
		out[name] = sum / float64(count[name])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
