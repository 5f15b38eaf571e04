package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public functions.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Op     int     `json:"op"`     // -1 when no op owns the call
	Name   string  `json:"name"`   // "<layer>.<call>"
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Alloc  uint64  `json:"alloc_bytes"` // heap bytes allocated meanwhile (single caller only)
	Count  int     `json:"count"`       // work done, in the call's own unit

	alloc0 uint64
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run
// ends. A nil *recorder records nothing, which is the untraced path.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	allocs bool // measure per-span allocation (one caller at a time)
	spans  []span
}

func newRecorder(allocs bool) *recorder { return &recorder{t0: time.Now(), allocs: allocs} }

func (r *recorder) now() float64 { return ms(time.Since(r.t0)) }

// begin opens a span and returns its id (-1 on a nil recorder). An op
// of -2 makes the span its own op.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	var a uint64
	if r.allocs {
		a = allocBytes()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	if op == -2 {
		op = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now(), alloc0: a})
	return id
}

// end closes span id, recording count units of work.
func (r *recorder) end(id, count int) {
	if r == nil {
		return
	}
	t := r.now()
	var a uint64
	if r.allocs {
		a = allocBytes()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End, s.Count = t, count
	if r.allocs {
		s.Alloc = a - s.alloc0
	}
}

// add records an already-timed span.
func (r *recorder) add(name string, parent, op int, start, end float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// selfMS is each span's duration minus the time its children cover.
func (r *recorder) selfMS() []float64 {
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// layerStat aggregates one span name over the ops that called it.
type layerStat struct {
	ops    []int     // the ops, in first-call order
	selfMS []float64 // per op, summed self time
	alloc  []float64 // per op, MiB allocated
	count  []float64 // per op, summed work count
	total  float64   // self time over the whole run, ms
}

// byName groups spans by name, summing within each op.
func (r *recorder) byName() map[string]*layerStat {
	self := r.selfMS()
	type key struct {
		name string
		op   int
	}
	type acc struct{ self, alloc, count float64 }
	per := make(map[key]*acc)
	var order []key
	for i, s := range r.spans {
		k := key{s.Name, s.Op}
		a := per[k]
		if a == nil {
			a = &acc{}
			per[k] = a
			order = append(order, k)
		}
		a.self += self[i]
		a.alloc += float64(s.Alloc) / (1 << 20)
		a.count += float64(s.Count)
	}
	out := make(map[string]*layerStat)
	for _, k := range order {
		st := out[k.name]
		if st == nil {
			st = &layerStat{}
			out[k.name] = st
		}
		a := per[k]
		st.ops = append(st.ops, k.op)
		st.selfMS = append(st.selfMS, a.self)
		st.alloc = append(st.alloc, a.alloc)
		st.count = append(st.count, a.count)
		st.total += a.self
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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
