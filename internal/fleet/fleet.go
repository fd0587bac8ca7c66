// Package fleet is the linqd autoscaling supervisor: it spawns local linqd
// processes (the -addr :0 / -addr-file handshake), polls each member's
// /v1/backends load sample, grows the fleet when queue depth sits over a
// high-watermark, drains members (SIGTERM — linqd finishes every accepted
// job before exiting) when load falls under a low-watermark, and restarts
// crashed members on their previous address and journal so accepted jobs
// replay instead of vanishing. The push-based operational-data loop follows
// DCDB Wintermute's model: daemons report what they know (queue depth,
// drain state), the supervisor acts on sustained signals, and clients route
// through a tilt.Pool over Supervisor.Addrs with the same telemetry.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	tilt "repro"
	"repro/internal/metrics"
)

// Member states reported in Status.
const (
	StateStarting = "starting" // spawned, waiting for the addr-file handshake
	StateServing  = "serving"  // bound and sampled
	StateDraining = "draining" // SIGTERM sent, finishing accepted jobs
)

// Config parameterizes a Supervisor. Zero fields resolve to the documented
// defaults in New.
type Config struct {
	// LinqdPath is the linqd binary to spawn (required).
	LinqdPath string
	// Args are extra arguments appended to every member's command line
	// (after the supervisor-owned -addr/-addr-file/-journal-dir flags).
	Args []string
	// Dir is the scratch directory for addr files and per-member journal
	// directories ("" = a fresh os.MkdirTemp directory).
	Dir string
	// Min and Max bound the member count (defaults 1 and 4).
	Min, Max int
	// HighWater adds a member when the mean daemon-reported queue depth per
	// serving member stays above it for Sustain consecutive polls
	// (default 8).
	HighWater int
	// LowWater drains a member when the fleet-wide queue depth stays at or
	// below it for Sustain consecutive polls while more than Min members
	// serve (default 0 — drain only a fully idle fleet).
	LowWater int
	// Sustain is how many consecutive polls a watermark must hold before
	// the supervisor acts (default 3).
	Sustain int
	// Poll is the sampling period (default 500ms).
	Poll time.Duration
	// SampleTimeout bounds each member's health fetch (default 2s).
	SampleTimeout time.Duration
	// DrainTimeout bounds a drained member's exit before SIGKILL
	// (default 30s).
	DrainTimeout time.Duration
	// RestartBackoff is the pause before a crashed member is respawned
	// (default 500ms).
	RestartBackoff time.Duration
	// Journal gives every member slot a persistent journal directory under
	// Dir, so a crashed member's accepted jobs replay on restart.
	Journal bool
	// Metrics instruments the supervisor (nil = books into a private
	// registry).
	Metrics *metrics.Registry
	// Logger receives lifecycle records (nil = discard).
	Logger *slog.Logger
	// MemberOutput receives the members' combined stdout/stderr
	// (nil = discard).
	MemberOutput io.Writer
}

// member is one supervised linqd process. All fields are owned by the
// supervisor mutex except the exit channel, closed by the per-process
// reaper goroutine.
type member struct {
	slot     int // stable identity: keys the journal dir and addr reuse
	cmd      *exec.Cmd
	addrFile string
	addr     string              // bound address ("" until the handshake lands)
	client   *tilt.RemoteBackend // health sampler, built at handshake
	state    string
	started  time.Time
	drained  time.Time // when SIGTERM was sent (zero = not draining)
	restarts int       // times this slot was respawned after a crash

	queued    int    // last daemon-reported queue depth (all pools)
	running   int    // last daemon-reported in-flight work
	sampled   bool   // at least one sample landed
	sampleErr string // last sample failure ("" on success)

	exit    chan struct{} // closed by the reaper once Wait returns
	exitErr error
}

// pid returns the process ID (0 before Start).
func (m *member) pid() int {
	if m.cmd != nil && m.cmd.Process != nil {
		return m.cmd.Process.Pid
	}
	return 0
}

// exited reports (without blocking) whether the process finished.
func (m *member) exited() bool {
	select {
	case <-m.exit:
		return true
	default:
		return false
	}
}

// Supervisor manages a fleet of linqd subprocesses. Create with New, run
// the control loop with Run, and inspect with Status (the /v1/fleet
// payload).
type Supervisor struct {
	cfg Config

	mu         sync.Mutex
	members    []*member // live (starting/serving/draining) members
	nextSlot   int
	highStreak int // consecutive polls with mean depth over HighWater
	lowStreak  int // consecutive polls with total depth at/below LowWater
	scaleUps   int
	scaleDowns int
	restarts   int
	retryAt    map[int]time.Time // slot -> earliest respawn after a crash

	mx *instruments
}

// instruments holds the supervisor's pre-resolved metric handles.
type instruments struct {
	members    *metrics.Gauge   // linq_fleet_members
	queued     *metrics.Gauge   // linq_fleet_queued
	scaleUps   *metrics.Counter // linq_fleet_scale_ups_total
	scaleDowns *metrics.Counter // linq_fleet_scale_downs_total
	restarts   *metrics.Counter // linq_fleet_restarts_total
	pollErrs   *metrics.Counter // linq_fleet_poll_errors_total
}

func newInstruments(r *metrics.Registry) *instruments {
	return &instruments{
		members: r.Gauge("linq_fleet_members",
			"Members currently spawned (starting, serving, or draining)."),
		queued: r.Gauge("linq_fleet_queued",
			"Fleet-wide daemon-reported queue depth at the last poll."),
		scaleUps: r.Counter("linq_fleet_scale_ups_total",
			"Members added by the high-watermark policy."),
		scaleDowns: r.Counter("linq_fleet_scale_downs_total",
			"Members drained by the low-watermark policy."),
		restarts: r.Counter("linq_fleet_restarts_total",
			"Crashed members respawned."),
		pollErrs: r.Counter("linq_fleet_poll_errors_total",
			"Failed member health polls."),
	}
}

// New validates the configuration and returns an idle supervisor; Run
// starts the fleet.
func New(cfg Config) (*Supervisor, error) {
	if cfg.LinqdPath == "" {
		return nil, errors.New("fleet: Config.LinqdPath is required")
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max <= 0 {
		cfg.Max = 4
	}
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("fleet: Max (%d) must be >= Min (%d)", cfg.Max, cfg.Min)
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 8
	}
	if cfg.LowWater < 0 {
		cfg.LowWater = 0
	}
	if cfg.LowWater >= cfg.HighWater {
		return nil, fmt.Errorf("fleet: LowWater (%d) must be below HighWater (%d)", cfg.LowWater, cfg.HighWater)
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = 3
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.SampleTimeout <= 0 {
		cfg.SampleTimeout = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 500 * time.Millisecond
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "linqfleet-*")
		if err != nil {
			return nil, fmt.Errorf("fleet: scratch dir: %w", err)
		}
		cfg.Dir = dir
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: scratch dir: %w", err)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.MemberOutput == nil {
		cfg.MemberOutput = io.Discard
	}
	return &Supervisor{cfg: cfg, retryAt: map[int]time.Time{}, mx: newInstruments(cfg.Metrics)}, nil
}

// Run spawns the minimum fleet and drives the control loop — reap and
// restart crashed members, sample load, scale on sustained watermarks —
// until ctx is cancelled, then drains every member (SIGTERM, SIGKILL after
// the drain timeout) and returns.
func (s *Supervisor) Run(ctx context.Context) error {
	s.mu.Lock()
	for len(s.members) < s.cfg.Min {
		if err := s.spawnLocked("", 0); err != nil {
			s.mu.Unlock()
			s.shutdown()
			return err
		}
	}
	s.mu.Unlock()

	tick := time.NewTicker(s.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.shutdown()
			return nil
		case <-tick.C:
			s.reap()
			s.sampleAll(ctx)
			s.decide()
		}
	}
}

// spawnLocked starts one member. addr pins the listen address (crash
// restarts reuse the dead member's port so clients keep polling the same
// URL); "" listens on :0. A non-zero slot reuses that slot's stable
// identity (journal dir); slot 0 allocates the next one. Callers hold mu.
func (s *Supervisor) spawnLocked(addr string, slot int) error {
	if slot == 0 {
		s.nextSlot++
		slot = s.nextSlot
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	addrFile := filepath.Join(s.cfg.Dir, fmt.Sprintf("m%d.addr", slot))
	_ = os.Remove(addrFile)
	args := []string{"-addr", addr, "-addr-file", addrFile}
	if s.cfg.Journal {
		jdir := filepath.Join(s.cfg.Dir, fmt.Sprintf("m%d-journal", slot))
		args = append(args, "-journal-dir", jdir)
	}
	args = append(args, s.cfg.Args...)
	cmd := exec.Command(s.cfg.LinqdPath, args...)
	cmd.Stdout = s.cfg.MemberOutput
	cmd.Stderr = s.cfg.MemberOutput
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: spawn member %d: %w", slot, err)
	}
	m := &member{
		slot:     slot,
		cmd:      cmd,
		addrFile: addrFile,
		state:    StateStarting,
		started:  time.Now(),
		exit:     make(chan struct{}),
	}
	// The reaper: every started process must be Waited, and the closed
	// channel is how the (non-blocking) control loop sees the exit.
	go func() {
		m.exitErr = cmd.Wait()
		close(m.exit)
	}()
	s.members = append(s.members, m)
	s.gaugeMembersLocked()
	s.cfg.Logger.Info("member spawned", "slot", slot, "pid", m.pid(), "addr", addr)
	return nil
}

// reap handles process exits and the addr-file handshake: finished
// draining members leave the fleet, crashed members respawn on their old
// address and journal after the backoff, and starting members that wrote
// their addr file begin serving.
func (s *Supervisor) reap() {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.members[:0]
	var respawn []*member
	for _, m := range s.members {
		if !m.exited() {
			if m.state == StateStarting {
				if b, err := os.ReadFile(m.addrFile); err == nil && len(b) > 0 {
					m.addr = string(b)
					m.client = tilt.Remote(m.addr)
					m.state = StateServing
					s.cfg.Logger.Info("member serving", "slot", m.slot, "pid", m.pid(), "addr", m.addr)
				}
			}
			if m.state == StateDraining && !m.drained.IsZero() && now.Sub(m.drained) > s.cfg.DrainTimeout {
				s.cfg.Logger.Warn("member drain timed out, killing", "slot", m.slot, "pid", m.pid())
				_ = m.cmd.Process.Kill()
				m.drained = now // restart the clock instead of re-killing every tick
			}
			kept = append(kept, m)
			continue
		}
		if m.state == StateDraining {
			s.cfg.Logger.Info("member drained", "slot", m.slot, "addr", m.addr)
			continue // deliberate exit: drop it
		}
		// Crash: respawn the slot, reusing its address (so clients polling
		// jobs on it reconnect) and its journal (so those jobs replay).
		s.cfg.Logger.Warn("member crashed", "slot", m.slot, "addr", m.addr, "err", fmt.Sprint(m.exitErr))
		respawn = append(respawn, m)
	}
	s.members = kept
	for _, m := range respawn {
		at, waiting := s.retryAt[m.slot]
		if !waiting {
			s.retryAt[m.slot] = now.Add(s.cfg.RestartBackoff)
			// Keep the corpse in the list so Status still shows the slot and
			// the next reap pass retries it.
			s.members = append(s.members, m)
			continue
		}
		if now.Before(at) {
			s.members = append(s.members, m)
			continue
		}
		delete(s.retryAt, m.slot)
		addr := m.addr
		if m.state == StateStarting {
			// It died before binding — its pinned address may be the reason.
			addr = ""
		}
		if err := s.spawnLocked(addr, m.slot); err != nil {
			s.cfg.Logger.Error("member respawn failed", "slot", m.slot, "err", err.Error())
			s.retryAt[m.slot] = now.Add(s.cfg.RestartBackoff)
			s.members = append(s.members, m)
			continue
		}
		s.restarts++
		spawned := s.members[len(s.members)-1]
		spawned.restarts = m.restarts + 1
		s.mx.restarts.Inc()
	}
	s.gaugeMembersLocked()
}

// sampleAll polls every serving member's /v1/backends concurrently, each
// fetch bounded by the sample timeout, and stores the reduced load sample.
func (s *Supervisor) sampleAll(ctx context.Context) {
	s.mu.Lock()
	targets := make([]*member, 0, len(s.members))
	clients := make([]*tilt.RemoteBackend, 0, len(s.members))
	for _, m := range s.members {
		if m.state == StateServing && m.client != nil && !m.exited() {
			targets = append(targets, m)
			clients = append(clients, m.client)
		}
	}
	s.mu.Unlock()

	type sample struct {
		queued, running int
		err             error
	}
	out := make([]sample, len(targets))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *tilt.RemoteBackend) {
			defer wg.Done()
			hctx, cancel := context.WithTimeout(ctx, s.cfg.SampleTimeout)
			defer cancel()
			h, err := c.Health(hctx)
			if err != nil {
				out[i] = sample{err: err}
				return
			}
			var q, r int
			for _, l := range h.Load {
				q += l.Queued
				r += l.Running
			}
			out[i] = sample{queued: q, running: r}
		}(i, c)
	}
	wg.Wait()

	s.mu.Lock()
	for i, m := range targets {
		if out[i].err != nil {
			m.sampleErr = out[i].err.Error()
			s.mx.pollErrs.Inc()
			continue
		}
		m.queued, m.running = out[i].queued, out[i].running
		m.sampled, m.sampleErr = true, ""
	}
	s.mu.Unlock()
}

// decide applies the watermark policy from the latest samples: sustained
// mean queue depth per serving member over the high-watermark adds a
// member (to Max); sustained fleet-wide depth at or below the low-watermark
// drains the least-loaded member (to Min).
func (s *Supervisor) decide() {
	s.mu.Lock()
	defer s.mu.Unlock()

	var serving []*member
	active := 0 // everything not draining counts against Min/Max
	total := 0
	for _, m := range s.members {
		if m.state != StateDraining {
			active++
		}
		if m.state == StateServing && m.sampled {
			serving = append(serving, m)
			total += m.queued
		}
	}
	s.mx.queued.Set(float64(total))
	if len(serving) == 0 {
		s.highStreak, s.lowStreak = 0, 0
		return
	}

	if total > s.cfg.HighWater*len(serving) {
		s.highStreak++
	} else {
		s.highStreak = 0
	}
	if total <= s.cfg.LowWater {
		s.lowStreak++
	} else {
		s.lowStreak = 0
	}

	if s.highStreak >= s.cfg.Sustain && active < s.cfg.Max {
		s.highStreak = 0
		if err := s.spawnLocked("", 0); err != nil {
			s.cfg.Logger.Error("scale-up spawn failed", "err", err.Error())
			return
		}
		s.scaleUps++
		s.mx.scaleUps.Inc()
		s.cfg.Logger.Info("scaled up", "members", active+1, "queued", total)
		return
	}

	if s.lowStreak >= s.cfg.Sustain && active > s.cfg.Min {
		s.lowStreak = 0
		// Drain the least-loaded serving member: fewest queued+running, so
		// the drain finishes fastest and strands the least work.
		victim := serving[0]
		for _, m := range serving[1:] {
			if m.queued+m.running < victim.queued+victim.running {
				victim = m
			}
		}
		s.drainLocked(victim)
		s.scaleDowns++
		s.mx.scaleDowns.Inc()
		s.cfg.Logger.Info("scaled down", "slot", victim.slot, "members", active-1, "queued", total)
	}
}

// drainLocked sends SIGTERM: linqd stops intake, finishes accepted jobs,
// and exits; the reaper removes it. Callers hold mu.
func (s *Supervisor) drainLocked(m *member) {
	m.state = StateDraining
	m.drained = time.Now()
	_ = m.cmd.Process.Signal(os.Interrupt)
}

// shutdown drains the whole fleet and waits for every member to exit,
// SIGKILLing stragglers after the drain timeout.
func (s *Supervisor) shutdown() {
	s.mu.Lock()
	members := append([]*member(nil), s.members...)
	for _, m := range members {
		if !m.exited() && m.state != StateDraining {
			s.drainLocked(m)
		}
	}
	s.mu.Unlock()

	deadline := time.NewTimer(s.cfg.DrainTimeout)
	defer deadline.Stop()
	for _, m := range members {
		select {
		case <-m.exit:
		case <-deadline.C:
			s.cfg.Logger.Warn("shutdown drain timed out, killing remaining members")
			for _, k := range members {
				if !k.exited() {
					_ = k.cmd.Process.Kill()
				}
			}
			for _, k := range members {
				<-k.exit
			}
			s.finishShutdown(members)
			return
		}
	}
	s.finishShutdown(members)
}

// finishShutdown clears the member list once every process exited.
func (s *Supervisor) finishShutdown(members []*member) {
	s.mu.Lock()
	s.members = nil
	s.gaugeMembersLocked()
	s.mu.Unlock()
	s.cfg.Logger.Info("fleet drained", "members", len(members))
}

func (s *Supervisor) gaugeMembersLocked() {
	s.mx.members.Set(float64(len(s.members)))
}

// MemberStatus is one member's row in the /v1/fleet payload.
type MemberStatus struct {
	Slot     int    `json:"slot"`
	PID      int    `json:"pid"`
	Addr     string `json:"addr,omitempty"`
	State    string `json:"state"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Restarts int    `json:"restarts"`
	Started  string `json:"started"`
	// SampleError is the last failed health poll ("" when the member
	// answers).
	SampleError string `json:"sample_error,omitempty"`
}

// Status is the supervisor's live census — the /v1/fleet payload.
type Status struct {
	Members    []MemberStatus `json:"members"`
	Min        int            `json:"min"`
	Max        int            `json:"max"`
	HighWater  int            `json:"high_water"`
	LowWater   int            `json:"low_water"`
	Queued     int            `json:"queued"`
	ScaleUps   int            `json:"scale_ups"`
	ScaleDowns int            `json:"scale_downs"`
	Restarts   int            `json:"restarts"`
}

// Status snapshots the fleet.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Min:        s.cfg.Min,
		Max:        s.cfg.Max,
		HighWater:  s.cfg.HighWater,
		LowWater:   s.cfg.LowWater,
		ScaleUps:   s.scaleUps,
		ScaleDowns: s.scaleDowns,
		Restarts:   s.restarts,
	}
	for _, m := range s.members {
		st.Members = append(st.Members, MemberStatus{
			Slot:        m.slot,
			PID:         m.pid(),
			Addr:        m.addr,
			State:       m.state,
			Queued:      m.queued,
			Running:     m.running,
			Restarts:    m.restarts,
			Started:     m.started.UTC().Format(time.RFC3339),
			SampleError: m.sampleErr,
		})
		st.Queued += m.queued
	}
	sort.Slice(st.Members, func(i, k int) bool { return st.Members[i].Slot < st.Members[k].Slot })
	return st
}

// Addrs returns the bound addresses of the members currently serving —
// the member list for a client-side tilt.Pool over the fleet.
func (s *Supervisor) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, m := range s.members {
		if m.state == StateServing && m.addr != "" {
			out = append(out, m.addr)
		}
	}
	sort.Strings(out)
	return out
}
