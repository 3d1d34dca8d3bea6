package main

import (
	"math"
	"testing"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// TestReplayRepeats: two traced replays of one seed give identical work
// counters and bit-identical final answers.
func TestReplayRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			frames := w.ReplayFrames / 10
			in, err := generate(w, 7, frames)
			if err != nil {
				t.Fatal(err)
			}
			a, err := replay(in, frames, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := replay(in, frames, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range coreCounters {
				if a.core[name] != b.core[name] {
					t.Errorf("%s: %d then %d", name, a.core[name], b.core[name])
				}
			}
			if a.core["relax"] == 0 {
				t.Error("replay did no relaxations")
			}
			if !sameAnswers(a.answers, b.answers) {
				t.Error("final answers differ between replays")
			}
			if want := coldStart(in.initial, in.frames[:frames], in.queries); !sameAnswers(a.answers, want) {
				t.Error("replay answers differ from a cold start")
			}
			if a.drops != 0 {
				t.Errorf("replay sanitizer dropped %d updates", a.drops)
			}
		})
	}
}

// TestSentinelVisibility: a POST becomes visible only when a read observes
// a sentinel answer at or past its sequence number, at that read's time.
func TestSentinelVisibility(t *testing.T) {
	w, err := lookupWorkload("json-readers")
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{w: w, frames: make([]frame, 5)}
	dr := newDriver(in, nil)
	dr.nSent = 4
	t0 := time.Now()
	dr.observeSentinel(0, t0, true) // the initial sentinel weight
	for i := 0; i < 4; i++ {
		if !dr.visible[i].IsZero() {
			t.Fatalf("POST %d visible before any sentinel read covers it", i+1)
		}
	}
	t1 := t0.Add(time.Millisecond)
	dr.observeSentinel(2, t1, true)
	for i, want := range []bool{true, true, false, false} {
		if got := !dr.visible[i].IsZero(); got != want {
			t.Errorf("after sentinel 2: POST %d visible=%v, want %v", i+1, got, want)
		}
	}
	if !dr.visible[1].Equal(t1) {
		t.Errorf("POST 2 visible at %v, want the read's time %v", dr.visible[1], t1)
	}
	// A later read must not move an earlier visibility time; a sentinel
	// beyond what was sent marks nothing unsent.
	dr.observeSentinel(5, t1.Add(time.Millisecond), true)
	if !dr.visible[1].Equal(t1) || dr.visible[3].IsZero() || !dr.visible[4].IsZero() {
		t.Errorf("after sentinel 5: visible %v", dr.visible)
	}
	if !dr.allVisible() {
		t.Error("every sent POST is covered, allVisible is false")
	}
	if dr.backwards != 0 {
		t.Errorf("backwards = %d on monotone reads", dr.backwards)
	}
	dr.observeSentinel(3, t1.Add(2*time.Millisecond), true)
	if dr.backwards != 1 {
		t.Errorf("backwards = %d after a read went back, want 1", dr.backwards)
	}
}

// TestStreamsSanitizeClean: every workload's generated stream passes the
// daemon's sanitizer with zero drops, frame by frame, and keeps every
// query's initial answer finite.
func TestStreamsSanitizeClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			// The stream of a 20-second run: a 12-second open loop.
			in, err := generate(w, 3, streamFrames(w, 12*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range coldStart(in.initial, nil, in.queries) {
				if math.IsInf(a, 1) {
					t.Errorf("query %d (%v) has no initial answer", i, in.queries[i])
				}
			}
			g := graph.FromEdgeList(in.initial)
			san := resilience.NewSanitizer(resilience.PolicyDrop, nil)
			for i, f := range in.frames {
				clean, rep, err := san.Sanitize(g, f.ups)
				if err != nil || !rep.Clean() || len(clean) != len(f.ups) {
					t.Fatalf("frame %d: %d of %d kept, drops %v, err %v", i, len(clean), len(f.ups), rep.Dropped, err)
				}
				g.Apply(clean)
			}
		})
	}
}
