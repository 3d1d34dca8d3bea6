package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/server"
)

// sessionID is the CGBIN/2 session the binary workloads send under.
const sessionID = 1

// driver runs the two measured phases against one daemon: an open-loop
// phase at the workload's fixed rate, then a closed-loop phase with a fixed
// window of updates sent but not yet visible. A reader issues open-loop
// GET /v1/answers across both phases and an SSE subscriber folds every
// /v1/watch delta into its own view of the answers.
type driver struct {
	in *inputs
	d  *daemon

	postClient, readClient, watchClient *http.Client

	// Per-frame bookkeeping, indexed by frame number. due is the open-loop
	// due time (send time in the closed loop); visible is when the frame
	// became visible (binary ack, or first sentinel read covering it).
	mu      sync.Mutex
	due     []time.Time
	visible []time.Time
	nSent   int
	nVis    int           // frames [0, nVis) are all visible
	notify  chan struct{} // signalled when a frame becomes visible

	// Sentinel reads must never go backwards.
	lastSentinel float64
	backwards    int

	readLat   []time.Duration // open-phase GET latencies from due time
	readDone  atomic.Int64
	readFails atomic.Int64

	opFails atomic.Int64 // non-OK acks, non-2xx responses, missing acks
}

func newDriver(in *inputs, d *daemon) *driver {
	mk := func(timeout time.Duration) *http.Client {
		return &http.Client{Timeout: timeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
	}
	n := len(in.frames)
	return &driver{
		in: in, d: d,
		postClient:  mk(30 * time.Second),
		readClient:  mk(30 * time.Second),
		watchClient: mk(0),
		due:         make([]time.Time, n),
		visible:     make([]time.Time, n),
		notify:      make(chan struct{}, 1),
	}
}

func (dr *driver) close() {
	for _, c := range []*http.Client{dr.postClient, dr.readClient, dr.watchClient} {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

func (dr *driver) signal() {
	select {
	case dr.notify <- struct{}{}:
	default:
	}
}

// phaseResult summarises one phase.
type phaseResult struct {
	start, end time.Time
	first, n   int // frames [first, first+n) were sent in this phase
	updates    int
	lateness   []time.Duration // send time − due time (open loop)
}

// sender is one ingest protocol: send frame i, and, once the phases are
// over, wait until every sent frame is visible.
type sender interface {
	send(i int) error
	finish(ctx context.Context) error
}

// runPhase sends frames starting at first until the phase ends or the
// stream runs out. rate > 0 makes it open loop (frame k due at start+k/rate);
// rate == 0 makes it closed loop, bounded by the workload window, over the
// rest of the stream.
func (dr *driver) runPhase(s sender, first int, rate float64, length time.Duration) (phaseResult, error) {
	res := phaseResult{first: first, start: time.Now()}
	end := res.start.Add(length)
	for i := first; i < len(dr.in.frames); i++ {
		var due time.Time
		if rate > 0 {
			due = res.start.Add(time.Duration(float64(i-first) / rate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			if !dr.waitWindow(len(dr.in.frames[i].ups), end) {
				break
			}
			due = time.Now()
		}
		now := time.Now()
		dr.mu.Lock()
		dr.due[i] = due
		dr.nSent = i + 1
		dr.mu.Unlock()
		if rate > 0 {
			res.lateness = append(res.lateness, now.Sub(due))
		}
		if err := s.send(i); err != nil {
			return res, err
		}
		res.n++
		res.updates += len(dr.in.frames[i].ups)
	}
	res.end = time.Now()
	return res, nil
}

// waitWindow blocks until n more updates fit in the closed-loop window, or
// reports false once the phase end passes.
func (dr *driver) waitWindow(n int, end time.Time) bool {
	for {
		dr.mu.Lock()
		inflight := 0
		for i := dr.firstInvisibleLocked(); i < dr.nSent; i++ {
			if dr.visible[i].IsZero() {
				inflight += len(dr.in.frames[i].ups)
			}
		}
		dr.mu.Unlock()
		if time.Now().After(end) {
			return false
		}
		if inflight+n <= dr.in.w.Window {
			return true
		}
		select {
		case <-dr.notify:
		case <-time.After(time.Until(end)):
		}
	}
}

// firstInvisibleLocked advances the visible-prefix cursor and returns it.
func (dr *driver) firstInvisibleLocked() int {
	for dr.nVis < dr.nSent && !dr.visible[dr.nVis].IsZero() {
		dr.nVis++
	}
	return dr.nVis
}

// markVisible records frame i's visibility time.
func (dr *driver) markVisible(i int, t time.Time) {
	dr.mu.Lock()
	if dr.visible[i].IsZero() {
		dr.visible[i] = t
	}
	dr.mu.Unlock()
	dr.signal()
}

// observeSentinel applies one read of the sentinel answer: it must never go
// backwards, and on JSON workloads it marks every POST whose sequence
// number it covers as visible.
func (dr *driver) observeSentinel(v float64, t time.Time, markFrames bool) {
	dr.mu.Lock()
	if v < dr.lastSentinel {
		dr.backwards++
	}
	dr.lastSentinel = math.Max(dr.lastSentinel, v)
	if markFrames {
		for i := dr.firstInvisibleLocked(); i < dr.nSent && float64(i+1) <= v; i++ {
			dr.visible[i] = t
		}
	}
	dr.mu.Unlock()
	if markFrames {
		dr.signal()
	}
}

// allVisible reports whether every sent frame is visible.
func (dr *driver) allVisible() bool {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.firstInvisibleLocked() == dr.nSent
}

// waitVisible blocks until every sent frame is visible.
func (dr *driver) waitVisible(ctx context.Context) error {
	for !dr.allVisible() {
		select {
		case <-dr.notify:
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("frames never became visible: %w", ctx.Err())
		}
	}
	return nil
}

// ---- binary (CGBIN/2) ----

type binSender struct {
	dr     *driver
	conn   net.Conn
	bw     *bufio.Writer
	frames [][]byte
	sent   chan int // frame numbers in send order, for the ack reader
	done   chan error
}

func newBinSender(dr *driver) (*binSender, error) {
	conn, err := net.Dial("tcp", dr.d.binAddr)
	if err != nil {
		return nil, fmt.Errorf("dial binary ingest: %w", err)
	}
	b := &binSender{
		dr: dr, conn: conn, bw: bufio.NewWriterSize(conn, 64<<10),
		// Sized to the stream so the sender never blocks on the ack reader.
		sent: make(chan int, len(dr.in.frames)),
		done: make(chan error, 1),
	}
	for _, f := range dr.in.frames {
		b.frames = append(b.frames, server.AppendBinFrameSession(nil, sessionID, f.seq, f.ups))
	}
	if _, err := b.bw.WriteString(server.BinHello2); err != nil {
		conn.Close()
		return nil, err
	}
	go b.readAcks()
	return b, nil
}

func (b *binSender) send(i int) error {
	b.sent <- i
	if _, err := b.bw.Write(b.frames[i]); err != nil {
		return fmt.Errorf("send frame %d: %w", i, err)
	}
	if err := b.bw.Flush(); err != nil {
		return fmt.Errorf("send frame %d: %w", i, err)
	}
	return nil
}

// readAcks resolves each frame's visibility from its ack: the server sends
// it only after WAL, apply and publish.
func (b *binSender) readAcks() {
	br := bufio.NewReader(b.conn)
	for i := range b.sent {
		a, err := server.ReadBinAck(br)
		now := time.Now()
		if err != nil {
			b.done <- fmt.Errorf("ack for frame %d: %w", i, err)
			b.dr.opFails.Add(1)
			for range b.sent {
				b.dr.opFails.Add(1) // missing ack
			}
			return
		}
		if a.Status != server.BinStatusOK || int(a.Accepted) != len(b.dr.in.frames[i].ups) {
			b.dr.opFails.Add(1)
		}
		b.dr.markVisible(i, now)
	}
	b.done <- nil
}

func (b *binSender) finish(ctx context.Context) error {
	close(b.sent)
	defer b.conn.Close()
	select {
	case err := <-b.done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("acks still missing: %w", ctx.Err())
	}
}

// ---- JSON (POST /v1/updates) ----

type jsonSender struct {
	dr     *driver
	bodies [][]byte
}

func newJSONSender(dr *driver) *jsonSender {
	j := &jsonSender{dr: dr}
	for _, f := range dr.in.frames {
		j.bodies = append(j.bodies, encodeUpdates(f))
	}
	return j
}

// encodeUpdates renders one POST /v1/updates body.
func encodeUpdates(f frame) []byte {
	var b bytes.Buffer
	b.WriteString(`{"updates":[`)
	for k, u := range f.ups {
		if k > 0 {
			b.WriteByte(',')
		}
		op := "add"
		if u.Del {
			op = "del"
		}
		fmt.Fprintf(&b, `{"op":%q,"from":%d,"to":%d,"w":%s}`, op, u.From, u.To,
			strconv.FormatFloat(u.W, 'g', -1, 64))
	}
	b.WriteString("]}")
	return b.Bytes()
}

func (j *jsonSender) send(i int) error {
	resp, err := j.dr.postClient.Post(j.dr.d.base+"/v1/updates", "application/json", bytes.NewReader(j.bodies[i]))
	if err != nil {
		return fmt.Errorf("POST %d: %w", i, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		j.dr.opFails.Add(1)
	}
	return nil
}

// finish waits until the sentinel reads cover every POST sent.
func (j *jsonSender) finish(ctx context.Context) error { return j.dr.waitVisible(ctx) }

// ---- reader (GET /v1/answers) ----

// answersBody is the /v1/answers wire shape.
type answersBody struct {
	Batches uint64 `json:"batches"`
	Answers []struct {
		ID    int              `json:"id"`
		Value server.WireValue `json:"value"`
	} `json:"answers"`
}

func (dr *driver) getAnswers(ctx context.Context) (*answersBody, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, dr.d.base+"/v1/answers", nil)
	if err != nil {
		return nil, err
	}
	resp, err := dr.readClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/answers: %s", resp.Status)
	}
	var body answersBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode /v1/answers: %w", err)
	}
	return &body, nil
}

// runReader issues GET /v1/answers at the workload's read rate until ctx
// ends, timing each from its due time; reads due in [recordFrom,
// recordUntil) are the read-latency samples.
func (dr *driver) runReader(ctx context.Context, start, recordFrom, recordUntil time.Time) {
	markFrames := dr.in.w.Proto == "json"
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / dr.in.w.ReadRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		body, err := dr.getAnswers(ctx)
		now := time.Now()
		if ctx.Err() != nil {
			return
		}
		dr.readDone.Add(1)
		if err != nil {
			dr.readFails.Add(1)
			continue
		}
		sid := dr.in.sentinelID()
		if sid >= len(body.Answers) {
			dr.readFails.Add(1)
			continue
		}
		dr.observeSentinel(float64(body.Answers[sid].Value), now, markFrames)
		if !due.Before(recordFrom) && due.Before(recordUntil) {
			dr.mu.Lock()
			dr.readLat = append(dr.readLat, now.Sub(due))
			dr.mu.Unlock()
		}
	}
}

// ---- watcher (GET /v1/watch, SSE) ----

// watcher folds /v1/watch deltas into its own view of the answers and
// records each delta's commit → receive latency. It behaves like a real
// subscriber: it renews its stream every renewAfter, and when the server
// ends the stream, it resubscribes with ?from=<last position>; when told to
// resync, it re-reads /v1/answers. Every stream the server ends before the
// watcher renews or stops it counts as a failed operation.
type watcher struct {
	dr *driver

	mu         sync.Mutex
	view       map[int]float64
	pos        uint64 // position the view reflects
	lat        []watchSample
	deltas     int
	resyncs    int // full re-reads, after a reconnect or a resync marker
	markers    int // in-stream resync markers (slow-consumer drops)
	reconnects int // streams the server ended before the watcher stopped
	renewals   int // streams the watcher itself ended to resubscribe
	stopped    bool
	body       io.Closer

	cancel context.CancelFunc
	done   chan error
}

// renewAfter is how long the watcher keeps one /v1/watch stream before it
// resubscribes. cisgraphd's http.Server write deadline (request timeout +
// 5 s, 15 s by default, 20 s with -wal) also ends SSE streams, so a
// subscriber that wants one unbroken view must renew inside it.
const renewAfter = 10 * time.Second

type watchSample struct {
	commit time.Time
	lat    time.Duration
}

// startWatcher subscribes to every query; initial seeds the folded view.
func (dr *driver) startWatcher(ctx context.Context, initial *answersBody) (*watcher, error) {
	ctx, cancel := context.WithCancel(ctx)
	w := &watcher{dr: dr, cancel: cancel, done: make(chan error, 1)}
	w.seed(initial)
	streamCtx, endStream := context.WithTimeout(ctx, renewAfter)
	br, err := w.subscribe(ctx, streamCtx)
	if err != nil {
		endStream()
		cancel()
		return nil, err
	}
	go func() { w.done <- w.run(ctx, br, streamCtx, endStream) }()
	return w, nil
}

// seed replaces the folded view with a full /v1/answers read.
func (w *watcher) seed(a *answersBody) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.view = make(map[int]float64, len(a.Answers))
	for _, x := range a.Answers {
		w.view[x.ID] = float64(x.Value)
	}
	w.pos = a.Batches
}

// subscribe opens the SSE stream from the view's position and consumes its
// init event, re-reading /v1/answers when the server demands a resync. The
// stream lives until streamCtx ends.
func (w *watcher) subscribe(ctx, streamCtx context.Context) (*bufio.Reader, error) {
	w.mu.Lock()
	url := fmt.Sprintf("%s/v1/watch?from=%d", w.dr.d.base, w.pos)
	w.mu.Unlock()
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.dr.watchClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("subscribe /v1/watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe /v1/watch: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	// The init event comes after the subscription is registered, so no
	// later commit can be missed.
	event, data, err := readSSE(br)
	if err != nil || event != "init" {
		resp.Body.Close()
		return nil, fmt.Errorf("watch init: event %q: %v", event, err)
	}
	var init struct {
		Resync bool `json:"resync"`
	}
	if err := json.Unmarshal(data, &init); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("watch init: %w", err)
	}
	if init.Resync {
		if err := w.resync(ctx); err != nil {
			resp.Body.Close()
			return nil, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		resp.Body.Close()
		return nil, errStopped
	}
	w.body = resp.Body
	return br, nil
}

var errStopped = fmt.Errorf("watcher stopped")

// resync re-reads the full answers. The read goes over the reader's
// connection: the watch connection is busy with the stream.
func (w *watcher) resync(ctx context.Context) error {
	w.mu.Lock()
	w.resyncs++
	w.mu.Unlock()
	a, err := w.dr.getAnswers(ctx)
	if err != nil {
		return fmt.Errorf("watch resync: %w", err)
	}
	w.seed(a)
	return nil
}

// readSSE reads one `event:`/`data:` frame.
func readSSE(br *bufio.Reader) (event string, data []byte, err error) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return "", nil, err
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case len(line) == 0:
			if event != "" {
				return event, data, nil
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// run consumes the stream, resubscribing whenever the renewal deadline
// passes or the server ends it before the watcher is stopped.
func (w *watcher) run(ctx context.Context, br *bufio.Reader, streamCtx context.Context, endStream context.CancelFunc) error {
	for {
		_ = w.consume(ctx, br) // any end of stream is handled the same way
		renewed := streamCtx.Err() != nil && ctx.Err() == nil
		endStream()
		w.mu.Lock()
		w.body.Close()
		stopped := w.stopped
		switch {
		case stopped:
		case renewed:
			w.renewals++
		default:
			w.reconnects++
		}
		w.mu.Unlock()
		if stopped {
			return nil
		}
		streamCtx, endStream = context.WithTimeout(ctx, renewAfter)
		var err error
		if br, err = w.subscribe(ctx, streamCtx); err != nil {
			endStream()
			if errors.Is(err, errStopped) || ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// consume applies events until the stream ends.
func (w *watcher) consume(ctx context.Context, br *bufio.Reader) error {
	for {
		event, data, err := readSSE(br)
		now := time.Now()
		if err != nil {
			return err
		}
		var ev struct {
			Pos     uint64 `json:"pos"`
			Ts      int64  `json:"ts"`
			Changed []struct {
				ID    int              `json:"id"`
				Value server.WireValue `json:"value"`
			} `json:"changed"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("watch %s event: %w", event, err)
		}
		switch event {
		case "delta":
			commit := time.Unix(0, ev.Ts)
			w.mu.Lock()
			w.deltas++
			w.lat = append(w.lat, watchSample{commit: commit, lat: now.Sub(commit)})
			// A delta the last full read already covers is skipped: applying
			// it would roll a later value back.
			if ev.Pos > w.pos {
				for _, c := range ev.Changed {
					w.view[c.ID] = float64(c.Value)
				}
				w.pos = ev.Pos
			}
			w.mu.Unlock()
		case "resync":
			w.mu.Lock()
			w.markers++
			w.mu.Unlock()
			if err := w.resync(ctx); err != nil {
				return err
			}
		case "bye":
			return io.EOF
		}
	}
}

// mismatches lists the queries whose folded view differs from the given
// answers, bit for bit.
func (w *watcher) mismatches(final *answersBody) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	if len(w.view) != len(final.Answers) {
		out = append(out, fmt.Sprintf("view has %d answers, /v1/answers %d", len(w.view), len(final.Answers)))
	}
	for _, a := range final.Answers {
		if v, ok := w.view[a.ID]; !ok || math.Float64bits(v) != math.Float64bits(float64(a.Value)) {
			out = append(out, fmt.Sprintf("query %d: watch %v, answers %v", a.ID, v, float64(a.Value)))
		}
	}
	return out
}

// stop ends the subscription and waits for the reading goroutine.
func (w *watcher) stop() error {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.cancel()
	return <-w.done
}

// counts returns the delta, resync-marker, reconnect and renewal counts.
func (w *watcher) counts() (deltas, markers, reconnects, renewals int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deltas, w.markers, w.reconnects, w.renewals
}

// samplesBetween returns the watch latencies of commits in [from, to).
func (w *watcher) samplesBetween(from, to time.Time) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []time.Duration
	for _, s := range w.lat {
		if !s.commit.Before(from) && s.commit.Before(to) {
			out = append(out, s.lat)
		}
	}
	return out
}
