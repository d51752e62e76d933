package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the driver made into a layer of the program.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index into the span list, -1 for a root
	Job     int     `json:"job"`    // job number within its phase, -1 for none
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written once, at exit. A
// disabled tracer records nothing, so untraced runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, t0 time.Time) *tracer { return &tracer{on: on, t0: t0} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, job int) int {
	if !t.on {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: job, StartMS: t.ms(now)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].EndMS = t.ms(now)
	t.mu.Unlock()
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent, job int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: job, StartMS: t.ms(start), EndMS: t.ms(end)})
	return len(t.spans) - 1
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name          string
	count         int
	totalMS, self float64
}

// selfTimes sums, per span name, the total duration and the self time:
// a span's duration minus the part of it its children cover (children
// of one parent may overlap, e.g. two clients' jobs, so their union is
// taken).
func selfTimes(spans []span) []spanStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.EndMS - s.StartMS
		st.count++
		st.totalMS += dur
		st.self += dur - covered(spans, children[i], s.StartMS, s.EndMS)
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].StartMS, lo), min(spans[k].EndMS, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curA, curB, started = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// report prints the self-time table.
func (t *tracer) report(p func(string, ...any)) {
	if !t.on {
		return
	}
	p("spans (%d): name, count, total ms, self ms", len(t.spans))
	for _, st := range selfTimes(t.spans) {
		p("  %-18s %6d %12.1f %12.1f", st.name, st.count, st.totalMS, st.self)
	}
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("perfbench: encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return nil
}
