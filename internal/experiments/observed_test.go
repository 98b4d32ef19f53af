package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/metrics"
)

// observedExports renders every export surface of one observed run into
// a single byte string: merged shard-labeled Prometheus, per-shard
// metrics snapshots and audit JSONL, the merged Chrome trace and
// timeline (per-shard sections + merged section), the merged EDP
// report, the shard-health report, the epoch wide-event JSONL, the
// per-shard health rows, and the flight dumps.
func observedExports(t *testing.T, obs *ShardedObservation) string {
	t.Helper()
	var buf bytes.Buffer
	snaps := make([]metrics.Snapshot, len(obs.Registries))
	for i, reg := range obs.Registries {
		snaps[i] = reg.Snapshot(false)
	}
	if err := metrics.WritePrometheusSharded(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		if err := snap.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.Audits[i].WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := obs.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Trace.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Trace.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.Health().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteEpochs(&buf, -1); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteShards(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteDumps(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOnlineScenarioShardedObservedGolden is the acceptance golden for
// the observed runner, at one shard and at four with stealing: the run
// completes coherently, every observability export — metrics, audit,
// traces, health, epochs, dumps — is byte-identical at GOMAXPROCS 1
// and 4, observing leaves the run's summary unchanged, the span report
// conserves the run's energy, and the audit log joins every job's
// decision with its realized outcome.
func TestOnlineScenarioShardedObservedGolden(t *testing.T) {
	spec := scenarioSpec(24)
	for _, cfg := range []core.ShardedConfig{{Shards: 1}, {Shards: 4, Steal: true}} {
		var base string
		var baseData OnlineData
		for i, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			env := freshEnv(t)
			r := runScenario(t, env, spec, 4, cfg, true)
			runtime.GOMAXPROCS(old)
			data, qs, obs := r.data, r.qs, r.obs
			label := fmt.Sprintf("shards=%d GOMAXPROCS=%d", cfg.Shards, procs)
			if data.Jobs != 24 || qs.Utilization <= 0 {
				t.Fatalf("%s: incoherent run: %+v / %+v", label, data, qs)
			}
			if obs.Flight.Epochs() == 0 {
				t.Fatalf("%s: run recorded no barrier epochs", label)
			}
			if len(obs.Registries) != cfg.Shards || len(obs.Audits) != cfg.Shards || obs.Trace.Shards() != cfg.Shards {
				t.Fatalf("%s: observation handles incomplete: %d regs, %d audits, %d tracers",
					label, len(obs.Registries), len(obs.Audits), obs.Trace.Shards())
			}
			checkObservedRun(t, label, env, data, obs)
			got := observedExports(t, obs)
			if i == 0 {
				base, baseData = got, data
				continue
			}
			if data != baseData {
				t.Fatalf("%s: summary diverged across GOMAXPROCS:\n got %+v\nwant %+v", label, data, baseData)
			}
			if got != base {
				t.Fatalf("%s: observed exports diverged across GOMAXPROCS", label)
			}
		}
		// Observing the run does not perturb it: the plain drive of the
		// same stream reports the same summary, bit for bit.
		if plain := runScenario(t, freshEnv(t), spec, 4, cfg, false).data; plain != baseData {
			t.Fatalf("shards=%d: observation perturbed the run:\n got %+v\nwant %+v", cfg.Shards, baseData, plain)
		}
		// The shard-labeled exposition, the health report and the EDP
		// attribution rollup render at any shard count; the per-shard and
		// merged trace sections only when there is more than one shard.
		for _, want := range []string{`shard="`, "# shard health", "# ecost EDP attribution"} {
			if !strings.Contains(base, want) {
				t.Fatalf("shards=%d: exports missing %q", cfg.Shards, want)
			}
		}
		for _, want := range []string{"== shard 0 ==", "== merged ==", "# ecost merged trace timeline"} {
			if got := strings.Contains(base, want); got != (cfg.Shards > 1) {
				t.Fatalf("shards=%d: exports contain %q = %v", cfg.Shards, want, got)
			}
		}
	}
}

// checkObservedRun asserts the conservation and join properties of one
// observed run.
func checkObservedRun(t *testing.T, label string, env *Env, data OnlineData, obs *ShardedObservation) {
	t.Helper()
	rep := obs.Trace.Report()
	if len(rep.Jobs) != data.Jobs {
		t.Fatalf("%s: report covers %d jobs, run completed %d", label, len(rep.Jobs), data.Jobs)
	}
	if math.Abs(rep.Phases.TotalJ()-data.EnergyJ) > 1e-9*data.EnergyJ {
		t.Errorf("%s: report phase total %v != run energy %v", label, rep.Phases.TotalJ(), data.EnergyJ)
	}
	if rep.AttributedJ <= 0 || rep.AttributedJ > data.EnergyJ {
		t.Errorf("%s: attributed %v outside (0, %v]", label, rep.AttributedJ, data.EnergyJ)
	}

	oracle := core.NewAuditOracle(env.Oracle)
	// A stolen job leaves an open record on its victim shard and gets a
	// fresh one on the thief, so count the completed decisions.
	decisions, joined, regret := 0, 0, 0
	for _, aud := range obs.Audits {
		for _, d := range aud.Decisions() {
			if d.Done {
				decisions++
			}
		}
		q := aud.Quality(oracle)
		joined += q.Joined
		regret += len(q.Regret)
	}
	if decisions != data.Jobs {
		t.Errorf("%s: audit logs complete %d decisions, want %d", label, decisions, data.Jobs)
	}
	if joined == 0 {
		t.Errorf("%s: no prediction joins under the lookup-table tuner", label)
	}
	if regret == 0 {
		t.Errorf("%s: no oracle regret rows for a pairing workload", label)
	}
}
