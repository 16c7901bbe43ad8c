package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request,
// call, frame or replay round share an id; parent names the enclosing
// span of the same id ("" for the root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// stamp returns the monotonic offset of t from the tracer's start.
func (t *tracer) stamp(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(id uint64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Start: t.stamp(start), End: t.stamp(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// layerTime is one span name's totals.
type layerTime struct {
	name, root string // the span name and the root span name above it
	count      int
	total, own int64 // summed duration and self time, ns
}

// selfTimes computes each span name's self time: its duration minus the
// part of that interval its children (spans of the same id naming it as
// parent) cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	byID := map[uint64][]span{}
	for _, s := range t.spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	t.mu.Unlock()
	acc := map[string]*layerTime{}
	for _, group := range byID {
		parentOf := map[string]string{}
		for _, s := range group {
			parentOf[s.Name] = s.Parent
		}
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if c.Parent == s.Name && c.Name != s.Name {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			root := s.Name
			for hops := 0; parentOf[root] != "" && hops < len(group); hops++ {
				root = parentOf[root]
			}
			dur := s.End - s.Start
			key := root + "\x00" + s.Name
			lt := acc[key]
			if lt == nil {
				lt = &layerTime{name: s.Name, root: root}
				acc[key] = lt
			}
			lt.count++
			lt.total += dur
			lt.own += dur - covered(kids)
		}
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].root != out[j].root {
			return out[i].root < out[j].root
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				sum += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		sum += curE - curS
	}
	return sum
}

// printLayers prints each span's self time and its share of the total
// time of the root spans it sits under, with the traced pass's headline
// end-to-end figure.
func (t *tracer) printLayers(w io.Writer, headline float64, headlineName string) {
	layers := t.selfTimes()
	rootTotal := map[string]int64{}
	for _, l := range layers {
		if l.name == l.root {
			rootTotal[l.root] = l.total
		}
	}
	fmt.Fprintf(w, "layer self time (traced %s = %.6g; share of the root span's total time)\n", headlineName, headline)
	fmt.Fprintf(w, "  %-20s %-28s %9s %14s %12s %7s\n", "root", "span", "count", "self total ms", "self mean us", "share")
	for _, l := range layers {
		share := 0.0
		if rt := rootTotal[l.root]; rt > 0 {
			share = 100 * float64(l.own) / float64(rt)
		}
		fmt.Fprintf(w, "  %-20s %-28s %9d %14.3f %12.3f %6.2f%%\n",
			l.root, l.name, l.count, float64(l.own)/1e6, float64(l.own)/1e3/float64(l.count), share)
	}
}
