package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// tracer times the benchmark's own calls into each layer. Every timed
// step goes through begin/end, traced or not, so both kinds of run
// execute the same code; with on set, end also keeps the span (name,
// start, end, parent, run id) in memory for the self-time breakdown and
// the Chrome trace written when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	run   int // repetition id stamped on new spans
	spans []span
	open  []int // stack of open span indices
}

type span struct {
	name       string
	start, end time.Duration // since t0
	parent     int           // index into spans, -1 for a root
	run        int
}

// mark is an open timing: a span index (traced) and its start.
type mark struct {
	idx   int
	start time.Time
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (tr *tracer) begin(name string) mark {
	now := time.Now()
	if !tr.on {
		return mark{idx: -1, start: now}
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{name: name, start: now.Sub(tr.t0), parent: parent, run: tr.run})
	idx := len(tr.spans) - 1
	tr.open = append(tr.open, idx)
	return mark{idx: idx, start: now}
}

// end closes m and returns its wall-clock duration.
func (tr *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.idx >= 0 {
		tr.spans[m.idx].end = now.Sub(tr.t0)
		// Pop m and anything an error path left open above it.
		for i := len(tr.open) - 1; i >= 0; i-- {
			if tr.open[i] == m.idx {
				tr.open = tr.open[:i]
				break
			}
		}
	}
	return now.Sub(m.start)
}

// selfOf lists the self time of every span named name, in order.
func (tr *tracer) selfOf(name string) []time.Duration {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []time.Duration
	for i, s := range tr.spans {
		if s.name == name {
			out = append(out, s.end-s.start-child[i])
		}
	}
	return out
}

// spansOfRun counts the spans recorded for repetition run.
func (tr *tracer) spansOfRun(run int) int {
	n := 0
	for _, s := range tr.spans {
		if s.run == run {
			n++
		}
	}
	return n
}

// durations lists the duration of every span named name, in order.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON ("X"
// complete events, microsecond timestamps), which Perfetto opens.
func (tr *tracer) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(tr.spans))
	for i, s := range tr.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "run": s.run},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
