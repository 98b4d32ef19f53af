package core

// Pinned observer exports: three fully instrumented runs render every
// export surface — metrics (text, JSON with the event log, Prometheus),
// audit JSONL, the quality report, span timeline, Chrome trace, EDP
// report, flight epochs/shards/dumps/health, the completion rows and
// the makespan/energy bits — and compare them byte for byte against
// files committed under testdata/observed. The other determinism
// goldens compare a run with itself; these compare against stored
// bytes, so any change to what the observers see or emit shows up
// here. Regenerate deliberately with
//
//	go test ./internal/core -run TestObserverExportsPinned -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/observed from the current exports")

// pinned compares got with testdata/observed/name (or rewrites it
// under -update).
func pinned(t *testing.T, name, export string) {
	t.Helper()
	path, got := filepath.Join("testdata", "observed", name), []byte(export)
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: export diverged from the pinned file (%d bytes, want %d)%s",
			name, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff names the first differing line of two exports.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("\nline %d:\n  got  %.200s\n  want %.200s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("\none export is a prefix of the other (%d vs %d lines)", len(g), len(w))
}

// completionRows renders the completion log plus the run's scalar
// results as exact float bits.
func completionRows(rows []CompletedJob, makespan, energy float64) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "makespan %016x\nenergy %016x\n", math.Float64bits(makespan), math.Float64bits(energy))
	for _, r := range rows {
		fmt.Fprintf(&buf, "%d %s %s %x %x %x %x %d %s\n", r.ID, r.App, r.Class,
			math.Float64bits(r.SizeGB), math.Float64bits(r.Submitted), math.Float64bits(r.Started),
			math.Float64bits(r.Finished), r.Node, r.Cfg)
	}
	return buf.String()
}

// pinRegistry pins one registry's text, JSON and Prometheus renderings.
func pinRegistry(t *testing.T, prefix string, reg *metrics.Registry) {
	t.Helper()
	snap := reg.Snapshot(false)
	pinned(t, prefix+"metrics.txt", render(t, func(w *bytes.Buffer) error { return snap.WriteText(w) }))
	pinned(t, prefix+"metrics.json", render(t, func(w *bytes.Buffer) error { return snap.WriteJSON(w) }))
	pinned(t, prefix+"metrics.prom", render(t, func(w *bytes.Buffer) error { return snap.WritePrometheus(w) }))
}

// observedSharded drives a sharded run with per-shard registries (under
// the MeteredSTP/MemoSTP tuner chain), audit logs, a ShardSet and a
// flight recorder, and pins every export under prefix.
func observedSharded(t *testing.T, prefix string, c *ShardedScheduler, regs []*metrics.Registry, submit func(c *ShardedScheduler)) *flight.Recorder {
	t.Helper()
	auds := make([]*audit.Log, c.Shards())
	for i := range auds {
		c.Shard(i).SetMetrics(regs[i])
		auds[i] = audit.NewLog(audit.DriftConfig{})
		c.Shard(i).SetAudit(auds[i])
	}
	ts := tracing.NewShardSet()
	c.SetTracer(ts)
	fr := flight.New(flight.Config{Shards: c.Shards(), ShardNodes: c.ShardNodes()})
	c.SetFlight(fr)
	submit(c)
	mk, en, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]metrics.Snapshot, len(regs))
	for i, reg := range regs {
		pinRegistry(t, fmt.Sprintf("%sshard%d.", prefix, i), reg)
		pinned(t, fmt.Sprintf("%sshard%d.audit.jsonl", prefix, i),
			render(t, func(w *bytes.Buffer) error { return auds[i].WriteJSONL(w) }))
		snaps[i] = reg.Snapshot(false)
	}
	pinned(t, prefix+"metrics.prom", render(t, func(w *bytes.Buffer) error { return metrics.WritePrometheusSharded(w, snaps) }))
	pinned(t, prefix+"timeline.txt", render(t, func(w *bytes.Buffer) error { return ts.WriteTimeline(w) }))
	pinned(t, prefix+"trace.json", render(t, func(w *bytes.Buffer) error { return ts.WriteChromeTrace(w) }))
	pinned(t, prefix+"edp.txt", render(t, func(w *bytes.Buffer) error { return ts.Report().WriteText(w) }))
	pinned(t, prefix+"flight.txt", flightExports(t, fr))
	rows := completionRows(c.Completed(), mk, en)
	pinned(t, prefix+"completed.txt", rows+fmt.Sprintf("steals %d\n", c.Steals()))
	return fr
}

// meteredShards builds a sharded scheduler whose shards each meter their
// tuner chain into a fresh registry, returned in shard order.
func meteredShards(t *testing.T, db *Database, base func() STP, nodes int, cfg ShardedConfig) (*ShardedScheduler, []*metrics.Registry) {
	t.Helper()
	regs := make([]*metrics.Registry, 0, cfg.Shards)
	newTuner := func() STP {
		reg := metrics.NewRegistry()
		regs = append(regs, reg)
		return NewMeteredSTP(NewMemoSTP(base(), reg), fix.model, reg)
	}
	c, err := NewShardedScheduler(fix.model, db, NewProfiler(fix.model, sim.NewRNG(99)), newTuner, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, regs
}

// TestObserverExportsPinned pins the observer exports of three runs:
// (a) one shard on auditedRun's stream, in both metrics/audit attach
// orders (generated by the retired standalone drive); (b) four stealing shards on the skewed
// stream; (c) the stale-database drift run, whose alerts reach the
// audit log, the metrics mirrors and the flight dumps.
func TestObserverExportsPinned(t *testing.T) {
	t.Run("solo", func(t *testing.T) {
		aud, reg, tr, s := auditedRunAttach(t, false)
		pinRegistry(t, "solo.", reg)
		pinned(t, "solo.audit.jsonl", render(t, func(w *bytes.Buffer) error { return aud.WriteJSONL(w) }))
		pinned(t, "solo.quality.txt", render(t, func(w *bytes.Buffer) error {
			return aud.Quality(NewAuditOracle(fix.oracle)).WriteText(w)
		}))
		pinned(t, "solo.timeline.txt", render(t, func(w *bytes.Buffer) error { return tr.WriteTimeline(w) }))
		pinned(t, "solo.trace.json", render(t, func(w *bytes.Buffer) error { return tr.WriteChromeTrace(w) }))
		pinned(t, "solo.edp.txt", render(t, func(w *bytes.Buffer) error { return tr.Report().WriteText(w) }))
		pinned(t, "solo.completed.txt", completionRows(s.Completed(), s.Engine.Now(), s.EnergyJ()))

		// Attaching the audit log first must not change a byte.
		aud2, reg2, tr2, s2 := auditedRunAttach(t, true)
		pinRegistry(t, "solo.", reg2)
		pinned(t, "solo.audit.jsonl", render(t, func(w *bytes.Buffer) error { return aud2.WriteJSONL(w) }))
		pinned(t, "solo.timeline.txt", render(t, func(w *bytes.Buffer) error { return tr2.WriteTimeline(w) }))
		pinned(t, "solo.completed.txt", completionRows(s2.Completed(), s2.Engine.Now(), s2.EnergyJ()))
	})
	t.Run("sharded-steal", func(t *testing.T) {
		fixture(t)
		c, regs := meteredShards(t, fix.db, func() STP { return fix.lkt }, 8, ShardedConfig{Shards: 4, Steal: true})
		observedSharded(t, "steal.", c, regs, skewedStream(t, 48, 10))
		if c.Steals() == 0 {
			t.Fatal("skewed stream never stole — the fixture is vacuous")
		}
	})
	t.Run("stale-drift", func(t *testing.T) {
		fixture(t)
		stale, err := BuildDatabase(NewProfiler(fix.model, sim.NewRNG(7)), fix.oracle, workloads.Training(), BuildOptions{
			Sizes:        []float64{1},
			ConfigStride: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, regs := meteredShards(t, stale, func() STP { return &LkTSTP{DB: stale} }, 4, ShardedConfig{Shards: 4})
		apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
		fr := observedSharded(t, "drift.", c, regs, func(c *ShardedScheduler) {
			for i := 0; i < 4*len(apps); i++ {
				c.Submit(workloads.MustByName(apps[i%len(apps)]), 12, float64(i)*40)
			}
		})
		if len(fr.Dumps()) == 0 {
			t.Fatal("stale database dumped nothing — the fixture is vacuous")
		}
	})
}
