package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/server"
	"cisgraph/internal/stats"
	"cisgraph/internal/watch"
)

// span is one timed call into a layer's exported entry point.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	// Commit is the frame (binary) or batch (JSON) the span belongs to; a
	// read carries the commit it followed.
	Commit int   `json:"commit"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	Bytes  int   `json:"bytes,omitempty"` // WAL write spans only
}

// tracer keeps spans in memory; the replay is single-threaded, so the
// innermost open span is the parent of the next one.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int
	commit int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.cur, Commit: t.commit,
		Start: time.Since(t.t0).Nanoseconds()})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.cur = t.spans[id].Parent
}

// timedFS wraps the resilience.FS seam so the WAL's Write and Sync calls
// become their own spans.
type timedFS struct {
	resilience.FS
	tr *tracer
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (resilience.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, tr: f.tr}, nil
}

type timedFile struct {
	resilience.File
	tr *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	id := f.tr.begin("resilience.wal_write")
	n, err := f.File.Write(p)
	f.tr.end(id)
	f.tr.spans[id].Bytes = n
	return n, err
}

func (f *timedFile) Sync() error {
	id := f.tr.begin("resilience.wal_fsync")
	err := f.File.Sync()
	f.tr.end(id)
	return err
}

// replayResult is what one traced replay measured.
type replayResult struct {
	spans   []span
	commits int
	updates int
	queries int
	drops   int64            // sanitizer refusals (the stream is valid: must be 0)
	core    map[string]int64 // engine counter deltas over the replay
	answers []algo.Value     // final answers, registration order
}

// coreCounters are the engine counters the replay reports.
var coreCounters = []string{
	stats.CntRelax, stats.CntActivation, stats.CntStateUpdate,
	stats.CntUpdateValuable, stats.CntUpdateDelayed, stats.CntUpdateUseless,
	stats.CntUpdateSkipQueries, stats.CntUpdateSafe, stats.CntUpdateUnsafe,
}

// replay feeds the first nFrames frames of the generated stream in-process
// through each layer's exported entry points, in the order the server
// calls them — decode, sanitize, WAL append, shadow-topology apply, pool
// apply, watch publish — with one span per call. Binary workloads commit
// one frame at a time; JSON workloads cut batches at the daemon's default
// size. GET /v1/answers is served through Server.Handler at the untraced
// run's read-to-commit ratio. walDir is used only when the workload runs
// with a WAL.
func replay(in *inputs, nFrames int, walDir string) (*replayResult, error) {
	tr := newTracer()
	g := graph.FromEdgeList(in.initial)
	srv, err := server.New(g, algo.PPSP{}, server.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	pool := srv.Pool()
	for _, q := range in.queries {
		pool.Register(q)
	}
	handler := srv.Handler()
	shadow := g.Clone()
	cnt := stats.NewCounters()
	san := resilience.NewSanitizer(resilience.PolicyDrop, cnt)
	var wal *resilience.SegmentedWAL
	if in.w.WAL {
		if wal, err = resilience.CreateSegmentedWAL(walDir, resilience.SegWALOptions{
			FS: timedFS{FS: resilience.OsFS{}, tr: tr},
		}); err != nil {
			return nil, err
		}
		defer wal.Close()
	}
	hub := watch.New()
	sub := hub.Subscribe(64, nil)
	defer sub.Cancel()

	before := pool.Counters()
	res := &replayResult{queries: len(in.queries)}
	var pos uint64
	var readAcc float64
	readsPerCommit := in.w.ReadRate / in.w.OpenRate
	// commit runs the post-decode stages of one commit.
	commit := func(clean []graph.Update, recs []resilience.Record, batch bool) error {
		if wal != nil && len(clean) > 0 {
			id := tr.begin("resilience.wal")
			var werr error
			if batch {
				_, werr = wal.Append(clean)
			} else {
				_, werr = wal.AppendRecords(recs)
			}
			tr.end(id)
			if werr != nil {
				return werr
			}
		}
		id := tr.begin("graph.apply")
		shadow.Apply(clean)
		tr.end(id)
		var changed []core.ChangedAnswer
		var perr error
		id = tr.begin("server.pool_apply")
		if batch {
			changed, perr = pool.ApplyBatch(clean)
			pos++
		} else {
			_, changed, perr = pool.ApplyUpdates(clean)
			pos += uint64(len(clean))
		}
		tr.end(id)
		if perr != nil {
			return perr
		}
		if len(changed) > 0 {
			id = tr.begin("watch.publish")
			events := make([]watch.Event, len(changed))
			for i, ca := range changed {
				events[i] = watch.Event{ID: ca.Index, Value: ca.Value}
			}
			hub.Publish(pos, time.Now().UnixNano(), events)
			<-sub.C
			tr.end(id)
		}
		res.updates += len(clean)
		return nil
	}
	read := func() error {
		id := tr.begin("server.answers")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answers", nil))
		tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay GET /v1/answers: %d", rec.Code)
		}
		return nil
	}
	// afterCommit issues the reads due after a commit covering k frames.
	afterCommit := func(k int) error {
		readAcc += readsPerCommit * float64(k)
		for ; readAcc >= 1; readAcc-- {
			if err := read(); err != nil {
				return err
			}
		}
		return nil
	}

	if in.w.Proto == "binary" {
		var wire []byte
		for _, f := range in.frames[:nFrames] {
			wire = server.AppendBinFrameSession(wire, sessionID, f.seq, f.ups)
		}
		r := bytes.NewReader(wire)
		var ups, clean []graph.Update
		var payload []byte
		var recs []resilience.Record
		for i := 0; i < nFrames; i++ {
			tr.commit = i
			root := tr.begin("commit")
			id := tr.begin("server.decode")
			var sid, seq uint64
			ups, payload, sid, seq, err = server.ReadBinFrameSession(r, ups[:0], payload)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("resilience.sanitize")
			ss := san.Stream(shadow)
			clean, recs = clean[:0], recs[:0]
			for k, up := range ups {
				if ss.Check(up) == "" {
					clean = append(clean, up)
					recs = append(recs, resilience.Record{SID: sid, Seq: seq + uint64(k)})
				}
			}
			tr.end(id)
			for k := range recs {
				recs[k].Batch = clean[k : k+1]
			}
			if err := commit(clean, recs, false); err != nil {
				return nil, err
			}
			tr.end(root)
			res.commits++
			if err := afterCommit(1); err != nil {
				return nil, err
			}
		}
	} else {
		size := server.Config{}.WithDefaults().BatchMaxSize
		var flat []graph.Update
		for _, f := range in.frames[:nFrames] {
			flat = append(flat, f.ups...)
		}
		for b := 0; b*size < len(flat); b++ {
			batch := flat[b*size : min((b+1)*size, len(flat))]
			tr.commit = b
			root := tr.begin("commit")
			id := tr.begin("resilience.sanitize")
			clean, _, serr := san.Sanitize(shadow, batch)
			tr.end(id)
			if serr != nil {
				return nil, serr
			}
			if err := commit(clean, nil, true); err != nil {
				return nil, err
			}
			tr.end(root)
			res.commits++
			if err := afterCommit(len(batch) / in.w.Frame); err != nil {
				return nil, err
			}
		}
	}

	after := pool.Counters()
	res.core = make(map[string]int64)
	for _, name := range coreCounters {
		res.core[name] = after.Get(name) - before.Get(name)
	}
	for _, name := range []string{resilience.DropOutOfRange, resilience.DropSelfLoop,
		resilience.DropBadWeight, resilience.DropDupAdd, resilience.DropAbsentDel} {
		res.drops += cnt.Get(name)
	}
	res.answers = append([]algo.Value(nil), pool.Answers().Values...)
	res.spans = tr.spans
	return res, nil
}

// layerStat aggregates one span name.
type layerStat struct {
	Name    string
	Count   int
	Total   time.Duration
	Self    time.Duration // total minus the time its child spans cover
	samples []time.Duration
}

// summarize aggregates spans by name, with self time (a span's duration
// minus its children's; children of one span never overlap here).
func summarize(spans []span) map[string]*layerStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(child[i])
		st.samples = append(st.samples, d)
	}
	return out
}

// writeTrace writes the span file and the per-layer self-time summary
// into dir and returns the summary text.
func writeTrace(dir, stem string, res *replayResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.jsonl"), buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	agg := summarize(res.spans)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].Self > agg[names[j]].Self })
	var sb strings.Builder
	fmt.Fprintf(&sb, "traced replay: %d commits, %d updates, %d spans\n", res.commits, res.updates, len(res.spans))
	fmt.Fprintf(&sb, "%-24s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/upd")
	for _, n := range names {
		st := agg[n]
		fmt.Fprintf(&sb, "%-24s %8d %12.3f %12.3f %10.3f\n", n, st.Count,
			ms(st.Total), ms(st.Self), float64(st.Self.Nanoseconds())/1e3/float64(res.updates))
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".summary.txt"), []byte(sb.String()), 0o644); err != nil {
		return "", err
	}
	return sb.String(), nil
}
