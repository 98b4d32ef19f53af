package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ecost/internal/core"
	"ecost/internal/mapreduce"
)

// Span names: one per call into a layer's public function, recorded
// from the benchmark's own files. bench.drive is the root of one
// repetition and spans first Submit to the end of StreamStats.
const (
	spanDrive     = "bench.drive"
	spanSubmit    = "core.submit"
	spanRun       = "core.run"
	spanCompleted = "core.completed"
	spanStats     = "experiments.stream_stats"
	spanTuneMiss  = "core.tune_miss"
)

// span is one timed call. Times are offsets from the run's epoch.
type span struct {
	name       string
	start, end time.Duration
	// parent indexes the driver log (-1 for the root).
	parent int32
	// job is the submitted job id on core.submit spans, -1 elsewhere.
	job int32
}

// spanLog is one goroutine's span buffer; a repetition has one for the
// driver goroutine and one per shard tuner, so no log is shared.
type spanLog struct {
	epoch  time.Time
	parent int32
	spans  []span
}

func (l *spanLog) now() time.Duration { return time.Since(l.epoch) }

// add records a span that started at start and ends now.
func (l *spanLog) add(name string, start time.Duration, job int) {
	l.spans = append(l.spans, span{name: name, start: start, end: l.now(), parent: l.parent, job: int32(job)})
}

// expectingSTP is what the tune wrapper forwards to: LkT implements
// both the plain and the forecasting entry points.
type expectingSTP interface {
	core.STP
	core.ExpectingSTP
}

var _ core.ExpectingSTP = (*timedSTP)(nil)

// timedSTP sits between one shard's MemoSTP and LkTSTP, so every call
// it sees is a memo miss. It forwards Name, PredictBest and
// PredictBestExpected unchanged, so MemoSTP's dispatch takes the same
// branch it takes for LkTSTP itself, and records each call as a
// core.tune_miss span in the shard's own log.
type timedSTP struct {
	inner expectingSTP
	log   *spanLog
}

func (t *timedSTP) Name() string { return t.inner.Name() }

func (t *timedSTP) PredictBest(a, b core.Observation) ([2]mapreduce.Config, error) {
	start := t.log.now()
	cfg, err := t.inner.PredictBest(a, b)
	t.log.add(spanTuneMiss, start, -1)
	return cfg, err
}

func (t *timedSTP) PredictBestExpected(a, b core.Observation) ([2]mapreduce.Config, core.PairExpectation, error) {
	start := t.log.now()
	cfg, exp, err := t.inner.PredictBestExpected(a, b)
	t.log.add(spanTuneMiss, start, -1)
	return cfg, exp, err
}

// spanTotals sums span durations by name over logs.
func spanTotals(logs ...*spanLog) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, l := range logs {
		for _, s := range l.spans {
			out[s.name] += s.end - s.start
		}
	}
	return out
}

// spanDurations appends the duration in ns of every span called name.
func spanDurations(dst []float64, name string, logs ...*spanLog) []float64 {
	for _, l := range logs {
		for _, s := range l.spans {
			if s.name == name {
				dst = append(dst, float64(s.end-s.start))
			}
		}
	}
	return dst
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes computes each span name's count, total and self time: a
// span's duration minus the part of it that its children cover. The
// driver log's spans are the parents; shard logs hold children of the
// driver span they name. Children of one parent may overlap (shards
// tune in parallel), so coverage is the union of their intervals.
func selfTimes(driver *spanLog, shards []*spanLog) []selfRow {
	type iv struct{ s, e time.Duration }
	kids := make([][]iv, len(driver.spans))
	for _, l := range append([]*spanLog{driver}, shards...) {
		for _, s := range l.spans {
			if s.parent >= 0 {
				kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
			}
		}
	}
	rows := map[string]*selfRow{}
	row := func(name string) *selfRow {
		if rows[name] == nil {
			rows[name] = &selfRow{name: name}
		}
		return rows[name]
	}
	for i, s := range driver.spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		covered := time.Duration(0)
		cs, ce := s.start, s.start
		for _, v := range ivs {
			v.s, v.e = max(v.s, s.start), min(v.e, s.end)
			if v.s >= v.e {
				continue
			}
			if v.s > ce {
				covered += ce - cs
				cs, ce = v.s, v.e
			} else if v.e > ce {
				ce = v.e
			}
		}
		covered += ce - cs
		r := row(s.name)
		r.count++
		r.total += s.end - s.start
		r.self += s.end - s.start - covered
	}
	for _, l := range shards {
		for _, s := range l.spans {
			r := row(s.name)
			r.count++
			r.total += s.end - s.start
			r.self += s.end - s.start
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

func writeSelfTable(w io.Writer, rows []selfRow) {
	var drive time.Duration
	for _, r := range rows {
		if r.name == spanDrive {
			drive = r.total
		}
	}
	fmt.Fprintf(w, "%-26s %9s %12s %12s %8s\n", "span (last traced rep)", "count", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %9d %12.3f %12.3f %8.2f\n", r.name, r.count,
			r.total.Seconds()*1e3, r.self.Seconds()*1e3, 100*r.self.Seconds()/drive.Seconds())
	}
}

// chromeEvent is one Chrome trace_event record ("X" complete events
// and "M" metadata), the JSON form Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the driver and shard logs of one repetition
// to path. Span ids are positions in the file's span order: the
// driver's spans first, then each shard's; parents always point into
// the driver's spans. Write errors are left to Flush: bufio.Writer
// keeps the first one, and these values always marshal.
func writeChromeTrace(path, runID string, record map[string]string, driver *spanLog, shards []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ns","otherData":`)
	enc.Encode(record)
	bw.WriteString(`,"traceEvents":[` + "\n")
	enc.Encode(chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench " + runID}})
	id := 0
	for tid, l := range append([]*spanLog{driver}, shards...) {
		thread := "driver"
		if tid > 0 {
			thread = fmt.Sprintf("shard %d tuner", tid-1)
		}
		bw.WriteString(",")
		enc.Encode(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": thread}})
		for _, s := range l.spans {
			args := map[string]any{"run": runID, "span": id, "parent": s.parent}
			if s.job >= 0 {
				args["job"] = s.job
			}
			bw.WriteString(",")
			enc.Encode(chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: args,
			})
			id++
		}
	}
	bw.WriteString("]}\n")
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
