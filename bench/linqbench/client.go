package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/tracing"
)

// eventTimeout is how long a job may go without a terminal SSE frame before
// the generator asks GET /v1/jobs/{id}: linqd drops frames for a subscriber
// more than 256 events behind.
const eventTimeout = 2 * time.Second

// drainTimeout bounds the wait for outstanding jobs after a phase stops
// submitting; jobs still unfinished then count as lost.
const drainTimeout = 60 * time.Second

// timerSlack is how far a Go timer may fire after its deadline (the
// runtime's netpoll sleeps in whole milliseconds); the open loop spins
// through the last timerSlack before a due submit instead.
const timerSlack = time.Millisecond

// conn is the generator's link to one linqd: exactly one keep-alive request
// connection, which carries submits, result fetches and scrapes in turn,
// and one GET /v1/events stream that reports completions.
type conn struct {
	base   string
	req    *http.Client
	tracer *tracing.Tracer // nil unless the run is traced

	events    chan string // IDs of jobs whose terminal frame arrived
	early     map[string]bool
	stopSSE   context.CancelFunc
	sseDone   chan struct{}
	fallbacks int // jobs resolved by polling after eventTimeout
}

// dial waits for linqd to answer /healthz over the request connection,
// then opens the event stream, before any submit so no completion is
// missed.
func dial(base string, tracer *tracing.Tracer) (*conn, error) {
	c := &conn{
		base:   base,
		tracer: tracer,
		req: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		// Sized so the reader never waits on the pump at any rate the
		// workloads reach; a full channel only delays frames, and linqd's
		// own 256-frame buffer then drops them into the poll fallback.
		events:  make(chan string, 1<<14),
		early:   make(map[string]bool),
		sseDone: make(chan struct{}),
	}
	if err := c.waitHealthy(30 * time.Second); err != nil {
		c.req.CloseIdleConnections()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	sse := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := sse.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = errors.New(resp.Status)
	}
	if err != nil {
		cancel()
		c.req.CloseIdleConnections()
		return nil, fmt.Errorf("subscribe to /v1/events: %w", err)
	}
	c.stopSSE = cancel
	go c.readEvents(ctx, resp.Body)
	return c, nil
}

// close ends the event stream and waits for its reader; linqd's graceful
// shutdown waits on open streams, so this precedes stopping the daemon.
func (c *conn) close() {
	c.stopSSE()
	<-c.sseDone
	c.req.CloseIdleConnections()
}

// waitHealthy polls /healthz until it answers 200.
func (c *conn) waitHealthy(timeout time.Duration) error {
	stop := time.Now().Add(timeout)
	for {
		status, _, err := c.get("/healthz", "")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(stop) {
			return errors.Join(fmt.Errorf("linqd not healthy after %v (status %d)", timeout, status), err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readEvents forwards the job ID of every terminal frame until ctx ends.
func (c *conn) readEvents(ctx context.Context, body io.ReadCloser) {
	defer close(c.sseDone)
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var ev struct {
			Job   string `json:"job"`
			State string `json:"state"`
		}
		if json.Unmarshal(data, &ev) != nil || !terminal(ev.State) {
			continue
		}
		select {
		case c.events <- ev.Job:
		case <-ctx.Done():
			return
		}
	}
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// get fetches path over the request connection.
func (c *conn) get(path, traceparent string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	return c.do(req)
}

func (c *conn) do(req *http.Request) (int, []byte, error) {
	resp, err := c.req.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// job is one submission and everything the generator saw of it.
type job struct {
	seq   int // position in the request stream
	entry int // pool index of the input
	id    string

	due, start time.Time // due: open-loop send time (zero in a closed loop)
	submitted  time.Time // submit response read
	end        time.Time // last byte of the result read
	status     int       // submit response status
	result     []byte
	lastCheck  time.Time // terminal frame awaited since
	fellBack   bool

	// Client spans of a traced run (nil otherwise): the whole job, and
	// its wait for the terminal frame.
	span, waitSpan *tracing.Span
}

// latency runs from the submit start, or the due time in an open loop, to
// the last byte of the result.
func (j *job) latency() time.Duration {
	if !j.due.IsZero() {
		return j.end.Sub(j.due)
	}
	return j.end.Sub(j.start)
}

// lag is how late an open-loop submit left.
func (j *job) lag() time.Duration {
	if j.due.IsZero() {
		return 0
	}
	return j.start.Sub(j.due)
}

// phase is one stretch of load.
type phase struct {
	window  int           // closed loop: jobs outstanding
	rate    float64       // open loop: arrivals per second (0 = closed)
	dur     time.Duration // submitting stops after dur...
	maxJobs int           // ...or after maxJobs submits (0 = no cap)
}

// phaseResult is what one phase measured.
type phaseResult struct {
	phase
	jobs        []*job
	start, stop time.Time // first submit; end of submitting
	lost        int
}

// finished returns the jobs whose result was read before the phase stopped
// submitting, leaving out the drain.
func (r *phaseResult) finished() []*job {
	var out []*job
	for _, j := range r.jobs {
		if j.result != nil && !j.end.After(r.stop) {
			out = append(out, j)
		}
	}
	return out
}

// throughput is jobs finished per second while the phase was submitting.
func (r *phaseResult) throughput() float64 {
	return float64(len(r.finished())) / r.stop.Sub(r.start).Seconds()
}

// run drives one phase over the request connection: it submits inputs from
// next, fetches each result as soon as its terminal frame arrives, and after
// the phase stops submitting, drains the jobs still outstanding.
func (c *conn) run(ph phase, next func() int, bodies [][]byte, seq *int) (*phaseResult, error) {
	r := &phaseResult{phase: ph, start: time.Now()}
	deadline := r.start.Add(ph.dur)
	outstanding := make(map[string]*job)
	var ready []*job
	submitting := true
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	markDone := func(id string) {
		if j, ok := outstanding[id]; ok {
			delete(outstanding, id)
			j.waitSpan.End()
			ready = append(ready, j)
		} else {
			c.early[id] = true // frame raced ahead of the submit response
		}
	}
	submit := func(due time.Time) error {
		j, err := c.submit(next(), bodies, due, seq)
		if err != nil {
			return err
		}
		r.jobs = append(r.jobs, j)
		switch {
		case j.id == "": // refused
		case c.early[j.id]:
			delete(c.early, j.id)
			j.waitSpan.End()
			ready = append(ready, j)
		default:
			outstanding[j.id] = j
		}
		return nil
	}
	for {
		now := time.Now()
		if submitting && (!now.Before(deadline) || (ph.maxJobs > 0 && len(r.jobs) >= ph.maxJobs)) {
			submitting = false
			r.stop = now
		}
		for drained := false; !drained; {
			select {
			case id := <-c.events:
				markDone(id)
			default:
				drained = true
			}
		}
		var due time.Time
		if ph.rate > 0 {
			due = r.start.Add(time.Duration(float64(len(r.jobs)) / ph.rate * float64(time.Second)))
		}
		switch {
		case submitting && ph.rate > 0 && !now.Before(due):
			// An open-loop submit goes before any fetch, to keep lag low.
			if err := submit(due); err != nil {
				return nil, err
			}
			continue
		case len(ready) > 0:
			if err := c.fetch(ready[0]); err != nil {
				return nil, err
			}
			ready = ready[1:]
			continue
		case submitting && ph.rate == 0 && len(outstanding) < ph.window:
			if err := submit(time.Time{}); err != nil {
				return nil, err
			}
			continue
		case !submitting && len(outstanding) == 0:
			return r, nil
		case !submitting && now.Sub(r.stop) > drainTimeout:
			r.lost = len(outstanding)
			return r, nil
		}

		// Nothing to send: wait for a frame, the next due submit, the end
		// of the phase, or the oldest job's event timeout.
		wake := now.Add(time.Second)
		if submitting {
			wake = deadline
			if ph.rate > 0 && due.Before(wake) {
				wake = due
			}
		}
		for _, j := range outstanding {
			if t := j.lastCheck.Add(eventTimeout); t.Before(wake) {
				wake = t
			}
		}
		if !wake.After(now) {
			if err := c.pollStale(outstanding, &ready, now); err != nil {
				return nil, err
			}
			continue
		}
		if wake.Equal(due) {
			if wake.Sub(now) <= timerSlack {
				continue // spin: a sleep this short would overshoot into send lag
			}
			wake = wake.Add(-timerSlack)
		}
		timer.Reset(wake.Sub(now))
		select {
		case id := <-c.events:
			markDone(id)
		case <-timer.C:
		}
	}
}

// pollStale asks linqd for the state of every job whose terminal frame is
// overdue, and treats the terminal ones as done.
func (c *conn) pollStale(outstanding map[string]*job, ready *[]*job, now time.Time) error {
	for id, j := range outstanding {
		if now.Sub(j.lastCheck) < eventTimeout {
			continue
		}
		status, body, err := c.get("/v1/jobs/"+id, "")
		if err != nil {
			return fmt.Errorf("poll %s: %w", id, err)
		}
		j.lastCheck = time.Now()
		if !j.fellBack {
			j.fellBack = true
			c.fallbacks++
		}
		var st struct {
			State string `json:"state"`
		}
		if status == http.StatusOK && json.Unmarshal(body, &st) == nil && terminal(st.State) {
			delete(outstanding, id)
			j.waitSpan.End()
			*ready = append(*ready, j)
		}
	}
	return nil
}

// submit posts one input. A refused submit (any status but 202) is
// recorded on the job and is not an error; a broken connection is.
func (c *conn) submit(entry int, bodies [][]byte, due time.Time, seq *int) (*job, error) {
	j := &job{seq: *seq, entry: entry, due: due}
	*seq++
	j.span = c.tracer.StartRoot("client job")
	sub := j.span.StartChild("client submit")
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(bodies[entry]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := sub.Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	j.start = time.Now()
	status, body, err := c.do(req)
	j.submitted = time.Now()
	sub.End()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	j.status = status
	j.lastCheck = j.submitted
	if status != http.StatusAccepted {
		j.span.End()
		return j, nil
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.ID == "" {
		return nil, fmt.Errorf("submit: unreadable 202 body %q", body)
	}
	j.id = resp.ID
	j.waitSpan = j.span.StartChild("client wait")
	return j, nil
}

// fetch reads the finished job's result.
func (c *conn) fetch(j *job) error {
	sp := j.span.StartChild("client fetch")
	status, body, err := c.get("/v1/jobs/"+j.id+"/result", sp.Traceparent())
	j.end = time.Now()
	sp.End()
	j.span.End()
	if err != nil {
		return fmt.Errorf("fetch %s: %w", j.id, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("fetch %s: status %d: %s", j.id, status, body)
	}
	j.result = body
	return nil
}
