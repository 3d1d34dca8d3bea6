// Command perfbench is the cisgraphd system benchmark. It generates a
// workload's inputs from a seed, drives a real cisgraphd process through an
// open-loop and a closed-loop phase, checks every answer against a
// cold-start recomputation, and prints one JSON result line. With -trace 1
// it also replays the same inputs in-process through each layer's exported
// entry points and reports per-layer metrics from the spans.
//
// Run it through run.sh, which builds cisgraphd and this program from the
// working tree:
//
//	bash perfbench/run.sh --workload manyq-binary --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// setupRuns is how many times a --trace 0 run starts the daemon; setup_s is
// the median.
const setupRuns = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "open-loop phase is 60% of this; the closed-loop phase follows")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
		root    = flag.String("root", ".", "checkout root (for the host stamp)")
		bin     = flag.String("daemon", "", "cisgraphd binary")
		out     = flag.String("out", ".bench_build", "directory for run files, span files and summaries")
	)
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, *bin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp, err := json.Marshal(res.stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("stamp %s\n%s\n", stamp, line)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	stamp  map[string]any
	result result
}

func run(name string, seed int64, seconds time.Duration, trace bool, root, bin, out string) (*output, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if bin == "" {
		return nil, fmt.Errorf("-daemon is required")
	}
	openLen := seconds * 3 / 5
	in, err := generate(w, seed, streamFrames(w, openLen))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", w.Name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	graphPath, queryFlag, err := in.writeFiles(dir)
	if err != nil {
		return nil, err
	}

	probe0 := cpuProbe()
	busy0, steal0 := cpuTicks()
	starts := setupRuns
	if trace {
		starts = 1 // set-up time is an end-to-end metric, measured untraced
	}
	var setups []float64
	var d *daemon
	for k := 0; k < starts; k++ {
		var took time.Duration
		if d, took, err = startDaemon(bin, dir, in, graphPath, queryFlag, k); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k < starts-1 {
			d.stop()
		}
	}
	m, err := measure(in, d, openLen)
	d.stop()
	if err != nil {
		return nil, err
	}

	busy1, steal1 := cpuTicks()
	o := &output{stamp: map[string]any{
		"host_cpu_ticks": map[string]int64{"busy": busy1 - busy0, "steal": steal1 - steal0},
		"host_probe_ms":  []float64{probe0, cpuProbe()},
		"host":           stampHost(root), "workload": w.Name, "seed": seed, "trace": trace,
		"stream_frames": len(in.frames), "stream_updates": in.updates(len(in.frames)),
		"queries": len(in.queries),
		"open_loop": map[string]any{
			"frames_per_s": w.OpenRate, "updates_per_s": w.OpenRate * float64(w.Frame),
			"reads_per_s": w.ReadRate, "seconds": m.open.end.Sub(m.open.start).Seconds(),
			"frames": m.open.n, "lateness_p50_ms": ms(pct(m.open.lateness, 50)),
			"lateness_p99_ms": ms(pct(m.open.lateness, 99)), "lateness_max_ms": ms(pct(m.open.lateness, 100)),
			"cpu_us_per_upd": m.openCPUUsPerUpd,
		},
		"warm_up": map[string]any{"seconds": warmUp.Seconds(), "frames": m.warm.n},
		"closed_loop": map[string]any{
			"window_updates": w.Window, "frames": m.closed.n, "updates": m.closed.updates,
			"seconds": m.closedSecs,
		},
		"samples": map[string]int{
			"setup": len(setups), "visible": len(m.visible), "watch": len(m.watch), "read": len(m.read),
		},
		"setup_s": setups,
		"checks":  m.checks,
		"visible_ms": map[string]float64{
			"p10": ms(pct(m.visible, 10)), "p25": ms(pct(m.visible, 25)), "p50": ms(pct(m.visible, 50)),
			"p75": ms(pct(m.visible, 75)), "p90": ms(pct(m.visible, 90)),
		},
		// Tail percentiles are reported here, with their sample counts, but
		// not gated: their spread across seeds is several times any usable
		// regression bound on a small shared host.
		"tails_ms": map[string]float64{
			"visible_p99": ms(pct(m.visible, 99)), "watch_p99": ms(pct(m.watch, 99)), "read_p99": ms(pct(m.read, 99)),
		},
	}}
	o.result = result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { o.result.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		put("setup_s", "s", median(setups))
		put("ingest_upd_s", "upd/s", m.ingest)
		put("visible_p50_ms", "ms", ms(pct(m.visible, 50)))
		put("watch_p50_ms", "ms", ms(pct(m.watch, 50)))
		put("read_p50_ms", "ms", ms(pct(m.read, 50)))
		put("cpu_us_per_upd", "us", m.cpuUsPerUpd)
		put("peak_rss_mb", "MiB", m.peakRSSMB)
		return o, nil
	}

	rp, err := replay(in, w.ReplayFrames, filepath.Join(dir, "replay-wal"))
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	stem := fmt.Sprintf("%s-seed%d", w.Name, seed)
	summary, err := writeTrace(filepath.Join(out, "traces"), stem, rp)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, summary)
	o.stamp["trace_files"] = filepath.Join(out, "traces", stem+".{spans.jsonl,summary.txt}")
	if want := coldStart(in.initial, in.frames[:w.ReplayFrames], in.queries); !sameAnswers(rp.answers, want) {
		o.result.Correct = false
		o.stamp["replay_answers"] = "differ from cold start"
	}
	o.result.Attempted += int64(w.ReplayFrames)
	o.result.Failed += rp.drops
	for k, v := range layerMetrics(rp, m) {
		o.result.Metrics[k] = v
	}
	return o, nil
}

// warmUp is an untimed open-loop stretch at the workload's rate before the
// measured open loop, so measured frames do not pay for cold caches, heap
// growth or the reader's and subscriber's first requests.
const warmUp = 2 * time.Second

// streamFrames is how many frames a run with an open loop of openLen
// sends, or the traced replay feeds, whichever is more.
func streamFrames(w workload, openLen time.Duration) int {
	return max(int(w.OpenRate*(warmUp+openLen).Seconds())+w.ClosedFrames, w.ReplayFrames)
}

// measurement is what the untraced run observed.
type measurement struct {
	warm, open, closed     phaseResult
	closedSecs, ingest     float64
	visible, watch, read   []time.Duration
	cpuUsPerUpd, peakRSSMB float64
	// Daemon CPU per update over the open loop, in the stamp; the gated
	// figure is the closed loop's.
	openCPUUsPerUpd   float64
	before, after     map[string]float64
	correct           bool
	attempted, failed int64
	checks            map[string]any
}

// closedLimit bounds the closed-loop phase should the daemon be too slow to
// take the stated stream size; a normal run's closed loop takes 8–20 s.
const closedLimit = 40 * time.Second

// measure runs the warm-up and the open-loop phase for openLen, then the
// closed-loop phase over the workload's stated stream size, then checks the
// final answers and the watch view.
func measure(in *inputs, d *daemon, openLen time.Duration) (*measurement, error) {
	ctx := context.Background()
	dr := newDriver(in, d)
	defer dr.close()
	m := &measurement{checks: map[string]any{}}

	initial, err := dr.getAnswers(ctx)
	if err != nil {
		return nil, err
	}
	wt, err := dr.startWatcher(ctx, initial)
	if err != nil {
		return nil, err
	}
	defer wt.stop()
	if m.before, err = d.scrape(ctx, dr.readClient); err != nil {
		return nil, err
	}
	var s sender
	if in.w.Proto == "binary" {
		if s, err = newBinSender(dr); err != nil {
			return nil, err
		}
	} else {
		s = newJSONSender(dr)
	}

	start := time.Now()
	readCtx, stopReader := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dr.runReader(readCtx, start, start.Add(warmUp), start.Add(warmUp+openLen))
	}()
	m.warm, err = dr.runPhase(s, 0, in.w.OpenRate, warmUp)
	// Daemon CPU time at the open loop's start, at the quiesce point
	// between the phases, and once the closed loop is all visible.
	var cpu [3]procSample
	if err == nil {
		cpu[0], err = d.sample()
	}
	if err == nil {
		m.open, err = dr.runPhase(s, m.warm.n, in.w.OpenRate, openLen)
	}
	// The closed loop starts from a quiesced daemon: the open loop's tail
	// is not billed to it, and the JSON batch window starts empty, so batch
	// boundaries fall at the same updates on every run of a seed.
	if err == nil {
		qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = dr.waitVisible(qctx)
		cancel()
	}
	if err == nil {
		cpu[1], err = d.sample()
	}
	if err == nil {
		m.closed, err = dr.runPhase(s, m.open.first+m.open.n, 0, closedLimit)
	}
	if err == nil {
		fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = s.finish(fctx)
		cancel()
	}
	if err == nil {
		cpu[2], err = d.sample()
	}
	stopReader()
	wg.Wait()
	if err != nil {
		return nil, err
	}

	if m.after, err = d.scrape(ctx, dr.readClient); err != nil {
		return nil, err
	}
	final, err := dr.getAnswers(ctx)
	if err != nil {
		return nil, err
	}
	end, err := d.sample()
	if err != nil {
		return nil, err
	}
	var watchDiff []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if watchDiff = wt.mismatches(final); len(watchDiff) == 0 {
			break
		}
	}
	watchOK := len(watchDiff) == 0
	for _, line := range watchDiff {
		fmt.Fprintln(os.Stderr, "watch view:", line)
	}

	// End-to-end figures.
	for i := m.open.first; i < m.open.first+m.open.n; i++ {
		m.visible = append(m.visible, dr.visible[i].Sub(dr.due[i]))
	}
	m.closedSecs, m.ingest = closedRate(dr.visible, m.closed)
	m.watch = wt.samplesBetween(m.open.start, m.closed.start)
	m.read = dr.readLat
	perUpdate := func(a, b procSample, updates int) float64 {
		return ratio(float64((b.cpu - a.cpu).Microseconds()), float64(updates))
	}
	m.openCPUUsPerUpd = perUpdate(cpu[0], cpu[1], m.open.updates)
	m.cpuUsPerUpd = perUpdate(cpu[1], cpu[2], m.closed.updates)
	m.peakRSSMB = float64(end.vmHWMKB) / 1024

	// Correctness: every answer bit-identical to a cold start on the final
	// topology, the watch view identical to the final answers, sentinel
	// reads monotone.
	sent := m.warm.n + m.open.n + m.closed.n
	want := coldStart(in.initial, in.frames[:sent], in.queries)
	got := make([]algo.Value, len(final.Answers))
	for i, a := range final.Answers {
		got[i] = float64(a.Value)
	}
	answersOK := len(final.Answers) == len(in.queries) && sameAnswers(got, want)
	dr.mu.Lock()
	backwards := dr.backwards
	dr.mu.Unlock()
	m.correct = answersOK && watchOK && backwards == 0
	m.checks["answers_match_cold_start"] = answersOK
	m.checks["watch_view_matches"] = watchOK
	m.checks["sentinel_backwards"] = backwards
	deltas, markers, reconnects, renewals := wt.counts()
	m.checks["watch_deltas"] = deltas
	m.checks["watch_resync_markers"] = markers
	m.checks["watch_reconnects"] = reconnects
	m.checks["watch_renewals"] = renewals
	m.checks["final_position"] = final.Batches

	// Failed operations: refused or missing acks, non-2xx responses, any
	// sanitizer or degraded drop, watch resync markers, and watch streams
	// the server ended while the subscriber still wanted them.
	drops := 0.0
	for _, k := range []string{"drop_out_of_range", "drop_self_loop", "drop_bad_weight", "drop_dup_add",
		"drop_absent_del", "srv_fastpath_dropped", "srv_updates_dropped_degraded", "srv_batches_dropped_degraded"} {
		drops += m.after[k]
	}
	m.failed = dr.opFails.Load() + dr.readFails.Load() + int64(drops) + int64(markers+reconnects)
	// Attempted: frames or POSTs, reads, and watch subscriptions.
	m.attempted = int64(sent) + dr.readDone.Load() + int64(1+reconnects+renewals)
	m.checks["drops"] = drops
	return m, nil
}

// coldStart recomputes every query from scratch on the initial topology
// with frames applied.
func coldStart(initial *graph.EdgeList, frames []frame, queries []core.Query) []algo.Value {
	g := graph.FromEdgeList(initial)
	for _, f := range frames {
		g.Apply(f.ups)
	}
	out := make([]algo.Value, len(queries))
	for i, q := range queries {
		cs := core.NewColdStart()
		cs.Reset(g, algo.PPSP{}, q)
		out[i] = cs.Answer()
	}
	return out
}

// sameAnswers compares float64 bits, so +Inf and -0 must match exactly.
func sameAnswers(got, want []algo.Value) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// layerMetrics derives the per-layer metrics from the traced replay and the
// untraced run's /metrics scrapes. A metric whose layer is not on the
// workload's path (no WAL, no binary decode, no batch window) reads 0.
func layerMetrics(rp *replayResult, m *measurement) map[string]metric {
	out := make(map[string]metric)
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	agg := summarize(rp.spans)
	meanUs := func(name string) float64 {
		if st := agg[name]; st != nil && st.Count > 0 {
			return float64(st.Total.Nanoseconds()) / 1e3 / float64(st.Count)
		}
		return 0
	}
	pctUs := func(name string, p float64) float64 {
		if st := agg[name]; st != nil {
			return float64(pct(st.samples, p).Nanoseconds()) / 1e3
		}
		return 0
	}
	put("server.decode_us", "us", meanUs("server.decode"))
	put("server.pool_apply_us_p50", "us", pctUs("server.pool_apply", 50))
	put("server.pool_apply_us_p99", "us", pctUs("server.pool_apply", 99))
	put("server.answers_us_p50", "us", pctUs("server.answers", 50))
	put("server.answers_us_p99", "us", pctUs("server.answers", 99))
	put("resilience.sanitize_us", "us", meanUs("resilience.sanitize"))
	// WAL spans: per commit, counting only writes and syncs made inside a
	// commit (segment creation at start-up is excluded).
	var walWrite, walSync time.Duration
	var walBytes int
	for _, s := range rp.spans {
		if s.Parent < 0 || rp.spans[s.Parent].Name != "resilience.wal" {
			continue
		}
		switch s.Name {
		case "resilience.wal_write":
			walWrite += time.Duration(s.End - s.Start)
			walBytes += s.Bytes
		case "resilience.wal_fsync":
			walSync += time.Duration(s.End - s.Start)
		}
	}
	perCommitUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(rp.commits) }
	put("resilience.wal_write_us", "us", perCommitUs(walWrite))
	put("resilience.wal_fsync_us", "us", perCommitUs(walSync))
	put("resilience.wal_bytes_per_upd", "B/upd", float64(walBytes)/float64(rp.updates))
	put("graph.apply_us", "us", meanUs("graph.apply"))
	put("watch.publish_us", "us", meanUs("watch.publish"))

	upd := float64(rp.updates)
	c := rp.core
	put("core.relax_per_upd", "count/upd", float64(c["relax"])/upd)
	put("core.activation_per_upd", "count/upd", float64(c["activation"])/upd)
	put("core.state_update_per_upd", "count/upd", float64(c["state_update"])/upd)
	classified := float64(c["update_useless"] + c["update_valuable"] + c["update_delayed"])
	put("core.useless_frac", "ratio", ratio(float64(c["update_useless"]), classified))
	put("core.valuable_frac", "ratio", ratio(float64(c["update_valuable"]), classified))
	put("core.delayed_frac", "ratio", ratio(float64(c["update_delayed"]), classified))
	// The fast path makes one skip decision per unsafe run of a frame, so on
	// the binary workloads this can exceed 1.
	put("core.skipped_query_frac", "skips/q/commit", ratio(float64(c["update_skipped_queries"]), float64(rp.queries*rp.commits)))
	put("core.unsafe_frac", "ratio", ratio(float64(c["update_unsafe"]), float64(c["update_safe"]+c["update_unsafe"])))

	// Attribution: layer span time per update against the untraced
	// closed-loop time per update.
	var layered time.Duration
	for _, s := range rp.spans {
		if s.Parent >= 0 && rp.spans[s.Parent].Name == "commit" {
			layered += time.Duration(s.End - s.Start)
		}
	}
	untracedUs := ratio(1e6, m.ingest)
	put("trace.replay_us_per_upd", "us", float64(agg["commit"].Total.Nanoseconds())/1e3/upd)
	put("trace.untraced_us_per_upd", "us", untracedUs)
	put("trace.attributed_frac", "ratio", ratio(float64(layered.Nanoseconds())/1e3/upd, untracedUs))

	delta := func(k string) float64 { return m.after[k] - m.before[k] }
	put("server.upd_per_group", "upd", ratio(delta("srv_fastpath_updates"), delta("srv_fastpath_groups")))
	cuts := delta("srv_batch_cut_size") + delta("srv_batch_cut_timer")
	put("server.batch_timer_cut_frac", "ratio", ratio(delta("srv_batch_cut_timer"), cuts))
	put("server.upd_per_batch", "upd", ratio(delta("srv_updates_applied"), delta("srv_batches_applied")))
	hits := delta("srv_answers_cache_hits")
	put("server.answers_cache_hit_ratio", "ratio", ratio(hits, hits+delta("srv_answers_cache_misses")))
	put("watch.drop_ratio", "ratio", ratio(delta("cisgraph_watch_drops"), delta("cisgraph_watch_deltas")))
	return out
}

// closedRate returns the closed-loop phase's length, from its start to the
// last visibility, and its updates made visible ÷ that length.
func closedRate(visible []time.Time, ph phaseResult) (secs, rate float64) {
	var last time.Time
	for i := ph.first; i < ph.first+ph.n; i++ {
		if visible[i].After(last) {
			last = visible[i]
		}
	}
	secs = last.Sub(ph.start).Seconds()
	return secs, ratio(float64(ph.updates), secs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct returns the p-th percentile (nearest rank) of ds; 0 for no samples.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
