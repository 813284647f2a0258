package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// report collects one run's metrics and output checks. Every value is
// echoed as a human-readable line when set; the final JSON line carries
// the values of the run's metric list.
type report struct {
	workload  string
	out       io.Writer
	units     map[string]string
	values    map[string]float64
	attempted int
	failed    int
}

func newReport(workload string, out io.Writer, spec benchSpec) *report {
	r := &report{workload: workload, out: out, units: make(map[string]string), values: make(map[string]float64)}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		r.units[d.Name] = d.Unit
	}
	return r
}

// set records a metric and prints it with note (sample counts, bases).
func (r *report) set(name string, v float64, note string) {
	unit, ok := r.units[name]
	if !ok {
		panic("e2ebench: metric " + name + " is not in " + specFile)
	}
	r.values[name] = v
	if moves := layerRoles[name].moves; moves != "" {
		note += " [moves " + moves + "]"
	}
	fmt.Fprintf(r.out, "%-32s %14.4f %-6s %s\n", name, v, unit, note)
}

// check counts one operation's output check toward ok_pct.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
	}
}

// checkErr counts an operation that fails with err as a failed check.
func (r *report) checkErr(err error, what string) bool {
	r.check(err == nil, "%s: %v", what, err)
	return err == nil
}

func (r *report) okPct() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 100 * float64(r.attempted-r.failed) / float64(r.attempted)
}

// setTimings records the exact median and the tail (at most the top
// percentile) of latencies scaled to the reference speed, with the
// sample count, the chosen percentile and the raw value beside each.
func (r *report) setTimings(scaled, raw []float64, top float64) {
	s, w := sortedCopy(scaled), sortedCopy(raw)
	r.set("latency_p50_ms", percentile(s, 50), fmt.Sprintf("(exact median, n=%d; raw %.3f ms)", len(s), percentile(w, 50)))
	if p, v, beyond, ok := tailPercentile(s, top); ok {
		r.set("latency_tail_ms", v, fmt.Sprintf("(p%g, n=%d, %d samples beyond; raw %.3f ms)", p, len(s), beyond, percentile(w, p)))
	} else {
		fmt.Fprintf(r.out, "%-32s %14s %-6s (n=%d: too few samples for a tail)\n", "latency_tail_ms", "-", "ms", len(s))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints the result line over defs. A per-layer metric that
// another workload's traced run measures prints as 0; any other missing
// metric is an error.
func (r *report) finish(defs []metricDef, traced bool) error {
	res := resultJSON{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var unmeasured []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			if w := layerRoles[d.Name].workload; !traced || w == "" || w == r.workload {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			unmeasured = append(unmeasured, d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if len(unmeasured) > 0 {
		fmt.Fprintf(r.out, "not measured on this workload (printed as 0): %v\n", unmeasured)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", b)
	return nil
}

// span is one timed call into a layer. Spans of one job, scenario or
// phase share ID; Parent indexes the causing span in the same log (-1
// for a root). Times are offsets from the run's start.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog is one goroutine's in-memory span list; logs of concurrent
// workers are merged when the run ends. A nil log records nothing, for
// untraced runs of the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name, id string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l != nil {
		l.spans[i].End = time.Since(l.t0)
	}
}

// add records a span whose ends were observed elsewhere (server-side
// job timestamps).
func (l *spanLog) add(name, id string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(l.t0), End: end.Sub(l.t0)})
	return len(l.spans) - 1
}

// merge appends other's spans, rebasing their parent indices.
func (l *spanLog) merge(other *spanLog) {
	off := len(l.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// totals sums span durations by name.
func (l *spanLog) totals() map[string]time.Duration {
	t := make(map[string]time.Duration)
	for _, s := range l.spans {
		t[s.Name] += s.End - s.Start
	}
	return t
}

// counts counts spans by name.
func (l *spanLog) counts() map[string]int {
	c := make(map[string]int)
	for _, s := range l.spans {
		c[s.Name]++
	}
	return c
}

// write stores the log as JSON lines in path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// summary prints span totals by name, the traced run's readable digest.
func (l *spanLog) summary(w io.Writer) {
	tot, cnt := l.totals(), l.counts()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  span %-24s %8d spans %12.3f ms total\n", n, cnt[n], ms(tot[n]))
	}
}
