package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to. Each is recorded by one of the
// benchmark's own wrappers around a call into the program.
const (
	layerIteration = "iteration" // one round of the workload's programs
	layerProgram   = "program"   // one guest program run, fresh window and VM
	layerClassload = "classload" // one class fetch (jvm.AsyncProvider wrapper)
	layerGuestFS   = "guest_fs"  // one guest file op (jvm.HostFS wrapper)
	layerBackend   = "backend"   // one below-cache vfs.Backend call
	layerInput     = "input"     // one input event handler on the loop
	layerEcho      = "echo"      // one request handled by the echo server
)

var traceLayers = []string{layerIteration, layerProgram, layerClassload, layerGuestFS, layerBackend, layerInput, layerEcho}

// keepIters is how many iterations' spans go to the trace file; self
// times are computed over every traced iteration.
const keepIters = 3

type span struct {
	layer, detail    string
	id, parent, iter int
	start, end       time.Duration // since the recorder's origin
}

// recorder keeps the spans of a traced run in memory. All spans of one
// iteration share its iteration number. A nil recorder records nothing,
// so untraced runs pay one nil check per wrapper call.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	iter   int
	base   int // id of spans[0]
	spans  []span
	kept   []span
	self   map[string]time.Duration
	iters  int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), base: 1, self: make(map[string]time.Duration)}
}

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(layer, detail string, parent int) int {
	if r == nil {
		return 0
	}
	return r.beginAt(layer, detail, parent, time.Now())
}

func (r *recorder) beginAt(layer, detail string, parent int, t time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.base + len(r.spans)
	at := t.Sub(r.origin)
	r.spans = append(r.spans, span{layer: layer, detail: detail, id: id, parent: parent, iter: r.iter, start: at, end: at})
	return id
}

// end closes span id now.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := id - r.base; i >= 0 && i < len(r.spans) {
		r.spans[i].end = time.Since(r.origin)
	}
}

// finishIter attributes the iteration's spans to layers by self time
// (a span's duration minus the part its children cover) and starts the
// next iteration.
func (r *recorder) finishIter() {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range r.spans {
		r.self[s.layer] += s.end - s.start - covered(s, r.spans, children[s.id])
	}
	if r.iter < keepIters {
		r.kept = append(r.kept, r.spans...)
	}
	r.iter++
	r.iters++
	r.base += len(r.spans)
	r.spans = nil
}

// covered is the length of the union of the child intervals, clipped
// to the parent's.
func covered(p span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].start, all[k].end
		if a < p.start {
			a = p.start
		}
		if b > p.end {
			b = p.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// selfMs returns each layer's self time per traced iteration, in ms.
func (r *recorder) selfMs() map[string]float64 {
	out := make(map[string]float64)
	for _, l := range traceLayers {
		out["self_ms."+l] = ratio(ms(r.self[l]), float64(r.iters))
	}
	return out
}

// writeChrome writes the kept spans as Chrome trace_event JSON.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tid := make(map[string]int)
	for i, l := range traceLayers {
		tid[l] = i + 1
	}
	events := make([]event, 0, len(r.kept))
	for _, s := range r.kept {
		name := s.layer
		if s.detail != "" {
			name += " " + s.detail
		}
		events = append(events, event{Name: name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: tid[s.layer], Args: map[string]int{"id": s.id, "parent": s.parent, "iter": s.iter}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
