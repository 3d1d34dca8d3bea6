package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// workload is one traffic mix: the generated inputs (graph scale, query
// set, stream shape), the ingest protocol, and the fixed load schedule.
type workload struct {
	Name string
	// Scale is the RMAT scale (2^Scale vertices, 16 edges per vertex
	// requested) of the dataset the initial graph and the stream come from.
	Scale int
	// Queries PPSP queries are spread over Sources distinct sources; the
	// sentinel query comes on top of them.
	Queries, Sources int
	// Proto is "binary" (one CGBIN/2 session) or "json" (POST /v1/updates).
	Proto string
	// Frame is the number of updates per binary frame or JSON POST,
	// including the sentinel pair when the frame carries one.
	Frame int
	// SentinelEvery: every k-th frame ends with del+add of the sentinel
	// edge, weight = the frame's sequence number.
	SentinelEvery int
	// WAL runs the daemon with a -wal directory.
	WAL bool
	// OpenRate is the open-loop send rate in frames (or POSTs) per second.
	OpenRate float64
	// ReadRate is the open-loop GET /v1/answers rate per second. Read,
	// send and batch-timer periods are kept incommensurate, so reads do not
	// phase-lock to commits and quantiles do not jump between modes.
	ReadRate float64
	// Window is the closed-loop bound on updates sent but not yet visible.
	Window int
	// ClosedFrames is the closed-loop phase's stated stream size: it sends
	// this many frames, as fast as the window allows, and times them.
	ClosedFrames int
	// ReplayFrames is how many frames the traced replay feeds; fixed, so
	// its work counters repeat exactly for a seed.
	ReplayFrames int
}

// workloads is the benchmark's workload table; BENCHMARK.json records why
// each one is there. The closed-loop stream sizes let ingest_upd_s average
// over many commits: json-readers runs on an RMAT-15 dataset because the
// RMAT-14 stream ends before its closed loop has averaged over enough
// batches. Each stream must hold the warm-up, a 30 s run's open loop and
// the closed loop; what is left over is the range the seed draws the
// stream's start from.
var workloads = []workload{
	{
		Name: "manyq-binary", Scale: 13, Queries: 256, Sources: 16,
		Proto: "binary", Frame: 64, SentinelEvery: 1, WAL: false,
		OpenRate: 40, ReadRate: 97, Window: 1024, ClosedFrames: 900, ReplayFrames: 300,
	},
	{
		Name: "json-readers", Scale: 15, Queries: 64, Sources: 16,
		Proto: "json", Frame: 64, SentinelEvery: 1, WAL: true,
		OpenRate: 97, ReadRate: 191, Window: 16384, ClosedFrames: 6000, ReplayFrames: 1600,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// frame is one binary frame or JSON POST of the generated stream.
type frame struct {
	ups []graph.Update
	// seq is the CGBIN/2 sequence number of the frame's first update
	// (1-based, consecutive across the stream).
	seq uint64
	// sentinel is the sentinel edge weight this frame leaves behind, 0 when
	// the frame carries no sentinel pair.
	sentinel float64
}

// inputs is everything the daemon receives, generated from the seed.
type inputs struct {
	w       workload
	initial *graph.EdgeList // stream snapshot plus the two sentinel vertices and edge
	queries []core.Query    // the stream queries, then the sentinel query last
	frames  []frame
}

// sentinelID is the sentinel query's registration id.
func (in *inputs) sentinelID() int { return len(in.queries) - 1 }

// updates returns the number of updates in frames[:n].
func (in *inputs) updates(n int) int {
	total := 0
	for _, f := range in.frames[:n] {
		total += len(f.ups)
	}
	return total
}

// datasetSeed fixes each workload's dataset: the graph, its initial split
// and the query set are part of the workload, like a dataset file; the run
// seed draws the update stream.
const datasetSeed = 42

// generate builds the workload's inputs from seed: nFrames frames of
// stream. The dataset (an RMAT graph split 50/50 into an initial snapshot
// and withheld edges) is fixed per workload; the seed picks where in the
// internal/stream update sequence — additions of withheld edges, deletions
// of loaded edges — the run starts, and the updates before that point are
// folded into the initial snapshot, so every update stays valid in order.
// Two extra vertices carry the sentinel edge, whose weight each sentinel
// frame rewrites with the frame's sequence number, so the sentinel query's
// answer names the last sentinel frame applied.
func generate(w workload, seed int64, nFrames int) (*inputs, error) {
	n := 1 << w.Scale
	ds := graph.RMAT("bench", w.Scale, 16*n, graph.DefaultRMAT, graph.MaxRawWeight, datasetSeed)
	st, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 2, DelsPerBatch: 2, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	g := st.Initial()
	// Each stream batch is 2 additions + 2 deletions; the stream lasts
	// until the withheld edges run out.
	available := 2 * st.Remaining()
	need := nFrames * w.Frame
	if room := available - need - 4*w.Frame; room > 0 {
		skip := rand.New(rand.NewSource(seed)).Intn(room/4 + 1)
		for i := 0; i < skip; i++ {
			g.Apply(st.NextBatch())
		}
	}
	initial := g.EdgeList("bench-initial")
	sa, sb := graph.VertexID(initial.N), graph.VertexID(initial.N+1)
	initial.N += 2
	initial.Arcs = append(initial.Arcs, graph.Arc{From: sa, To: sb, W: 0})

	queries, err := pickQueries(graph.FromEdgeList(initial), w.Queries, w.Sources, datasetSeed)
	if err != nil {
		return nil, err
	}
	queries = append(queries, core.Query{S: sa, D: sb})

	in := &inputs{w: w, initial: initial, queries: queries}
	var pending []graph.Update
	seq := uint64(1)
	last := 0.0
	for i := 0; i < nFrames; i++ {
		want := w.Frame
		withSentinel := (i+1)%w.SentinelEvery == 0
		if withSentinel {
			want -= 2
		}
		for len(pending) < want {
			b := st.NextBatch()
			if len(b) == 0 {
				break
			}
			pending = append(pending, b...)
		}
		if len(pending) < want {
			return nil, fmt.Errorf("workload %s: withheld edges ran out after %d of %d frames", w.Name, i, nFrames)
		}
		f := frame{seq: seq, ups: append([]graph.Update(nil), pending[:want]...)}
		pending = pending[want:]
		if withSentinel {
			f.sentinel = float64(i + 1)
			f.ups = append(f.ups, graph.Del(sa, sb, last), graph.Add(sa, sb, f.sentinel))
			last = f.sentinel
		}
		seq += uint64(len(f.ups))
		in.frames = append(in.frames, f)
	}
	return in, nil
}

// pickQueries chooses q PPSP pairs over k distinct sources, every
// destination reachable from its source on g, so every initial answer is
// finite.
func pickQueries(g *graph.Dynamic, q, k int, seed int64) ([]core.Query, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	perSource := (q + k - 1) / k
	var out []core.Query
	used := make(map[graph.VertexID]bool)
	for attempts := 0; len(out) < q && attempts < 100*k; attempts++ {
		s := graph.VertexID(rng.Intn(g.NumVertices() - 2))
		if used[s] || g.OutDegree(s) == 0 {
			continue
		}
		var reach []graph.VertexID
		for v, ok := range graph.ReachableFrom(g, s) {
			if ok && graph.VertexID(v) != s {
				reach = append(reach, graph.VertexID(v))
			}
		}
		if len(reach) < perSource {
			continue
		}
		used[s] = true
		rng.Shuffle(len(reach), func(i, j int) { reach[i], reach[j] = reach[j], reach[i] })
		for _, d := range reach[:perSource] {
			if len(out) < q {
				out = append(out, core.Query{S: s, D: d})
			}
		}
	}
	if len(out) < q {
		return nil, fmt.Errorf("only %d of %d connected query pairs found", len(out), q)
	}
	return out, nil
}

// writeFiles writes the initial graph (binary edge list, whose header keeps
// the isolated sentinel vertices) into dir and returns its path and the
// -queries flag value.
func (in *inputs) writeFiles(dir string) (graphPath, queryFlag string, err error) {
	graphPath = filepath.Join(dir, "initial.bel")
	f, err := os.Create(graphPath)
	if err != nil {
		return "", "", err
	}
	if err := graph.WriteBinary(f, in.initial); err != nil {
		f.Close()
		return "", "", fmt.Errorf("write %s: %w", graphPath, err)
	}
	if err := f.Close(); err != nil {
		return "", "", err
	}
	pairs := make([]string, len(in.queries))
	for i, q := range in.queries {
		pairs[i] = fmt.Sprintf("%d:%d", q.S, q.D)
	}
	return graphPath, strings.Join(pairs, ","), nil
}
