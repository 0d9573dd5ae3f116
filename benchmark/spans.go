package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval: invocation > workload > pass > cell >
// {setup, run, validate, replay}, and batch > job for pool runs. Spans
// are only recorded where the interval is a millisecond or more: a
// time.Now pair costs as much as a Mipsy tick, so finer layers are
// timed in batch instead (see README.md).
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, which is how the untraced passes run.
type spanLog struct {
	spans []span
}

// add records a finished span and returns its id; 0 is "no parent".
func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, start, end})
	return id
}

// begin opens a span that end closes.
func (l *spanLog) begin(parent int, name string) int {
	now := time.Now()
	return l.add(parent, name, now, now)
}

func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id-1].End = time.Now()
	}
}

// addCell records a cell sample's spans under parent.
func (l *spanLog) addCell(parent int, name string, s *sample) {
	if l == nil || s.valOut.IsZero() {
		return
	}
	id := l.add(parent, name, s.start, s.valOut)
	l.add(id, "setup", s.start, s.cfgOut)
	l.add(id, "run", s.cfgOut, s.valIn)
	l.add(id, "validate", s.valIn, s.valOut)
}

// write renders the spans as Chrome trace JSON ("X" complete events,
// microsecond timestamps relative to the first span); the span and
// parent ids travel in args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(l.spans[0].Start).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
