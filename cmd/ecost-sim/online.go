package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"

	"ecost/internal/audit"
	"ecost/internal/cliutil"
	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/trace"
	"ecost/internal/tracing"
)

// runOnline drives the arrival stream through the online control plane:
// per-shard schedulers over disjoint node slices, hash-routed
// submissions, and (with -steal) deterministic work stealing at event
// barriers. One shard, the default, is the whole cluster under a single
// scheduler and prints every export exactly as a single scheduler's.
// With more shards each shard owns its registry, tracer, and audit log
// (they are written concurrently during epochs); the run adds shard and
// barrier lines, prints per-shard exports as "== shard N ==" sections
// in shard order, and the trace, timeline and EDP surfaces also render
// the deterministic merged view (one Chrome track group per shard,
// steal flow arrows, a "== merged ==" section). -serve exposes merged +
// ?shard=N views over HTTP, and -flight-out/-health-report enable the
// barrier flight recorder.
func runOnline(env *experiments.Env, f runFlags, arrivals []trace.Arrival, header string, perJobTable bool) {
	model := mapreduce.NewModel(cluster.AtomC2758())
	nodes, shards := f.Nodes, f.Shards
	serving := f.ServeAddr != ""
	sharded := shards > 1
	regs := make([]*metrics.Registry, shards)
	if f.Metrics || serving {
		for i := range regs {
			regs[i] = metrics.NewRegistry()
		}
	}
	// The model and the stream are cluster-wide, so only a single shard
	// publishes them: a model shared by concurrent shards must not carry
	// a registry (its emissions would interleave nondeterministically).
	if !sharded {
		model.Metrics = regs[0]
	}
	// Recurring jobs re-ask the tuner the same question; the memo cache
	// answers repeats in one lookup. MeteredSTP unwraps it for the
	// deterministic scan-size metric and the hit/miss counters are
	// volatile, so -metrics snapshots are byte-identical either way.
	next := 0
	newTuner := func() core.STP {
		reg := regs[next]
		next++
		memo := core.NewMemoSTP(env.LkT, reg)
		if reg == nil {
			return memo
		}
		return core.NewMeteredSTP(memo, model, reg)
	}
	sched, err := core.NewShardedScheduler(model, env.DB, env.Profiler, newTuner, nodes,
		core.ShardedConfig{Shards: shards, Steal: f.Steal})
	if err != nil {
		cliutil.Fatalf("building online scheduler failed", "err", err)
	}
	trs := make([]*tracing.Tracer, shards)
	auds := make([]*audit.Log, shards)
	for i := 0; i < shards; i++ {
		sh := sched.Shard(i)
		sh.SetMetrics(regs[i])
		if f.QualityReport || serving {
			auds[i] = audit.NewLog(audit.DriftConfig{})
			sh.SetAudit(auds[i])
		}
	}
	var ts *tracing.ShardSet
	if f.TraceOut != "" || f.TimelineOut != "" || f.EDPReport || serving {
		ts = tracing.NewShardSet()
		sched.SetTracer(ts)
		for i := range trs {
			trs[i] = ts.Tracer(i)
		}
	}
	var fr *flight.Recorder
	if sharded && (f.FlightOut != "" || f.HealthReport || serving) {
		fr = flight.New(flight.Config{Shards: shards, ShardNodes: sched.ShardNodes()})
		sched.SetFlight(fr)
	}
	qualityOracle := core.NewAuditOracle(env.Oracle)
	var srv *http.Server
	if serving {
		ln, err := net.Listen("tcp", f.ServeAddr)
		if err != nil {
			cliutil.Fatalf("-serve listen failed", "err", err)
		}
		srv = &http.Server{Handler: newServeMux(serveSources{
			regs:     regs,
			trs:      trs,
			auds:     auds,
			qo:       qualityOracle,
			fr:       fr,
			volatile: f.MetricsVolatile,
		})}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				slog.Error("observability server failed", "err", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving observability endpoints on http://%s/\n", ln.Addr())
	}
	for _, a := range arrivals {
		if err := sched.Submit(a.App, a.SizeGB, a.At); err != nil {
			cliutil.Fatalf("submitting the arrival stream failed", "err", err)
		}
	}
	if !sharded {
		trace.Record(arrivals, regs[0])
	}
	makespan, energy, err := sched.Run()
	if err != nil {
		cliutil.Fatalf("online run failed", "err", err)
	}
	fmt.Println(header)
	fmt.Printf("  makespan %.0f s, energy %.0f J, EDP %.4g J·s\n", makespan, energy, energy*makespan)
	if sharded {
		fmt.Printf("  %d shard(s), %d steal(s)\n", sched.Shards(), sched.Steals())
		bs := sched.BarrierStats()
		fmt.Printf("  %d exact barrier(s), %d free window(s), %d event(s) elided (%.1f%%)\n",
			bs.Barriers, bs.Windows, bs.WindowEvents, 100*bs.ElidedRatio())
	}
	fmt.Println()
	done := sched.Completed()
	if !perJobTable {
		fmt.Printf("%d jobs completed\n", len(done))
		qs := experiments.StreamStats(done, nodes, makespan)
		fmt.Printf("  utilization        %.3f\n", qs.Utilization)
		fmt.Printf("  queue length       mean %.2f, p95 %.0f, max %d\n", qs.MeanQueueLen, qs.P95QueueLen, qs.MaxQueueLen)
		fmt.Printf("  wait p50/p95/p99   %.1f / %.1f / %.1f s\n", qs.WaitP50, qs.WaitP95, qs.WaitP99)
		fmt.Printf("  sojourn p50/p95/p99 %.1f / %.1f / %.1f s\n", qs.SojournP50, qs.SojournP95, qs.SojournP99)
	} else {
		fmt.Printf("%-4s %-5s %-6s %-5s %9s %9s %9s %5s %s\n",
			"id", "app", "class", "size", "submit", "start", "finish", "node", "config")
		for _, c := range done {
			fmt.Printf("%-4d %-5s %-6v %4.0fG %9.0f %9.0f %9.0f %5d %v\n",
				c.ID, c.App, c.Class, c.SizeGB, c.Submitted, c.Started, c.Finished, c.Node, c.Cfg)
		}
	}

	if f.TraceOut != "" {
		writeArtifact("-trace-out", f.TraceOut, ts.WriteChromeTrace)
		slog.Info("wrote Chrome trace", "path", f.TraceOut, "shards", shards)
	}
	if f.TimelineOut != "" {
		// With more than one shard: per-shard "== shard N ==" sections
		// plus the "== merged ==" global section in canonical merged order.
		writeArtifact("-timeline-out", f.TimelineOut, ts.WriteTimeline)
		slog.Info("wrote span timeline", "path", f.TimelineOut)
	}
	// perShard prints one export per shard, each after a blank line
	// and, with more than one shard, a "== shard N ==" header.
	perShard := func(flagName string, write func(i int) error) {
		for i := range shards {
			fmt.Println()
			if sharded {
				fmt.Printf("== shard %d ==\n", i)
			}
			if err := write(i); err != nil {
				cliutil.Fatalf("writing "+flagName+" failed", "err", err)
			}
		}
	}
	if f.EDPReport {
		perShard("-edp-report", func(i int) error { return trs[i].Report().WriteText(os.Stdout) })
		if sharded {
			fmt.Printf("\n== merged ==\n")
			if err := ts.Report().WriteText(os.Stdout); err != nil {
				cliutil.Fatalf("writing -edp-report failed", "err", err)
			}
		}
	}
	if f.QualityReport {
		perShard("-quality-report", func(i int) error { return auds[i].Quality(qualityOracle).WriteText(os.Stdout) })
	}
	if f.Metrics {
		perShard("-metrics snapshot", func(i int) error {
			snap := regs[i].Snapshot(f.MetricsVolatile)
			if f.MetricsJSON {
				return snap.WriteJSON(os.Stdout)
			}
			return snap.WriteText(os.Stdout)
		})
	}
	if f.HealthReport {
		fmt.Println()
		if err := fr.Health().WriteText(os.Stdout); err != nil {
			cliutil.Fatalf("writing -health-report failed", "err", err)
		}
	}
	if f.FlightOut != "" {
		writeArtifact("-flight-out", f.FlightOut, fr.WriteDumps)
		slog.Info("wrote flight-recorder dumps", "path", f.FlightOut, "dumps", len(fr.Dumps()))
	}
	if srv != nil {
		fmt.Fprintln(os.Stderr, "run finished; endpoints stay up — interrupt (Ctrl-C) to exit")
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		<-ctx.Done()
		stop()
		srv.Close()
	}
}
