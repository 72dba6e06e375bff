package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mamdr/internal/trace"
)

// spanIndex groups collected spans by name and by parent so layer
// metrics can be read off the tree: durations per name, and each span's
// self time (its duration minus the union of its children's intervals).
type spanIndex struct {
	byName   map[string][]*trace.Span
	children map[uint64][]*trace.Span
}

func indexSpans(spans []*trace.Span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*trace.Span{}, children: map[uint64][]*trace.Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.ParentID != 0 {
			ix.children[s.ParentID] = append(ix.children[s.ParentID], s)
		}
	}
	return ix
}

// durations returns the durations of every span named name, in unit.
func (ix *spanIndex) durations(name string, unit time.Duration) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.Duration())/float64(unit))
	}
	return out
}

func (ix *spanIndex) count(name string) int { return len(ix.byName[name]) }

// self is s's duration minus the part of its interval that its direct
// children cover (children may overlap, e.g. a scatter-gather fan-out).
func (ix *spanIndex) self(s *trace.Span) time.Duration {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.Duration()
	}
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		ivs = append(ivs, iv{k.Start(), k.Start().Add(k.Duration())})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	lo, hi := s.Start(), s.Start().Add(s.Duration())
	var covered time.Duration
	cur := ivs[0]
	flush := func(c iv) {
		if c.lo.Before(lo) {
			c.lo = lo
		}
		if c.hi.After(hi) {
			c.hi = hi
		}
		if c.hi.After(c.lo) {
			covered += c.hi.Sub(c.lo)
		}
	}
	for _, v := range ivs[1:] {
		if v.lo.After(cur.hi) {
			flush(cur)
			cur = v
			continue
		}
		if v.hi.After(cur.hi) {
			cur.hi = v.hi
		}
	}
	flush(cur)
	return s.Duration() - covered
}

// descendants calls fn for every span below s.
func (ix *spanIndex) descendants(s *trace.Span, fn func(*trace.Span)) {
	for _, k := range ix.children[s.ID] {
		fn(k)
		ix.descendants(k, fn)
	}
}

// writeSummary prints the per-layer self-time table: for every span
// name, the count, total and self time, and the median duration.
func (ix *spanIndex) writeSummary(w io.Writer) {
	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_us")
	for _, n := range names {
		var total, self time.Duration
		for _, s := range ix.byName[n] {
			total += s.Duration()
			self += ix.self(s)
		}
		fmt.Fprintf(w, "%-24s %9d %12.3f %12.3f %12.2f\n", n, len(ix.byName[n]),
			total.Seconds()*1e3, self.Seconds()*1e3, median(ix.durations(n, time.Microsecond)))
	}
}
