// Package tenant is linqd's multi-tenancy layer: API-key authentication,
// per-tenant quotas and token-bucket rate limits, and the weighted-fair
// scheduling weights the jobs manager layers onto its priority heap.
//
// Tenants are declared in a JSON config file (the linqd -tenants flag):
//
//	{
//	  "tenants": [
//	    {"id": "alice", "key": "a-secret", "weight": 3,
//	     "max_queued": 100, "max_inflight": 4,
//	     "rate_per_sec": 50, "burst": 100},
//	    {"id": "bob", "key": "b-secret"}
//	  ]
//	}
//
// Every limit is optional: zero means unlimited (and weight defaults to 1).
// Key lookup compares against every configured key with
// crypto/subtle.ConstantTimeCompare, so authentication time does not leak
// which prefix of a guessed key matched.
package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Sentinel errors returned by Authenticate.
var (
	// ErrUnauthorized: no tenant's key matches (HTTP 401).
	ErrUnauthorized = errors.New("tenant: unknown API key")
	// ErrForbidden: the key is valid but the tenant is disabled, or the
	// caller asserted a different tenant identity (HTTP 403).
	ErrForbidden = errors.New("tenant: access forbidden")
)

// Tenant is one tenant declaration.
type Tenant struct {
	// ID names the tenant: the metric label value and the job owner.
	ID string `json:"id"`
	// Key is the tenant's API key (Authorization: Bearer <key>).
	Key string `json:"key"`
	// Disabled keeps the tenant on the books but refuses its requests
	// with 403 — a kill switch that beats deleting the entry (and its
	// quota history) outright.
	Disabled bool `json:"disabled,omitempty"`
	// Weight is the tenant's weighted-fair scheduling share relative to
	// other tenants at the same priority (default 1; a weight-3 tenant
	// gets ~3x the executions of a weight-1 tenant under contention).
	Weight int `json:"weight,omitempty"`
	// MaxQueued caps the tenant's jobs waiting in queue; submissions over
	// the cap are rejected with 429. Zero = unlimited.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxInFlight caps the tenant's concurrently running executions; jobs
	// over the cap stay queued until a slot frees. Zero = unlimited.
	MaxInFlight int `json:"max_inflight,omitempty"`
	// RatePerSec and Burst configure the tenant's request token bucket:
	// sustained RatePerSec requests per second with bursts up to Burst
	// (default: ceil(RatePerSec), at least 1). RatePerSec zero = no limit.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
}

// state is a tenant's runtime: the declaration plus its token bucket.
type state struct {
	t     Tenant
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// Registry holds the configured tenants. Create one with New or LoadFile;
// all methods are safe for concurrent use.
type Registry struct {
	byID map[string]*state
	list []*state // stable iteration order for constant-time auth
}

// New validates the tenant declarations and returns their registry.
func New(tenants ...Tenant) (*Registry, error) {
	r := &Registry{byID: make(map[string]*state, len(tenants))}
	for i, t := range tenants {
		if t.ID == "" {
			return nil, fmt.Errorf("tenant: entry %d has no id", i)
		}
		if t.Key == "" {
			return nil, fmt.Errorf("tenant: %q has no key", t.ID)
		}
		if _, dup := r.byID[t.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate id %q", t.ID)
		}
		for _, prev := range r.list {
			if prev.t.Key == t.Key {
				return nil, fmt.Errorf("tenant: %q and %q share a key", prev.t.ID, t.ID)
			}
		}
		if t.Weight < 0 || t.MaxQueued < 0 || t.MaxInFlight < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("tenant: %q has a negative limit", t.ID)
		}
		if t.RatePerSec < 0 || math.IsNaN(t.RatePerSec) || math.IsInf(t.RatePerSec, 0) {
			return nil, fmt.Errorf("tenant: %q has rate_per_sec %v", t.ID, t.RatePerSec)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		s := &state{t: t}
		if t.RatePerSec > 0 {
			s.burst = math.Ceil(t.RatePerSec)
			if t.Burst > 0 {
				s.burst = float64(t.Burst)
			}
			s.tokens = s.burst // buckets start full
		}
		r.byID[t.ID] = s
		r.list = append(r.list, s)
	}
	if len(r.list) == 0 {
		return nil, fmt.Errorf("tenant: no tenants configured")
	}
	return r, nil
}

// configFile is the -tenants file wire form.
type configFile struct {
	Tenants []Tenant `json:"tenants"`
}

// Load parses the tenants config from r.
func Load(r io.Reader) (*Registry, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg configFile
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("tenant: parse config: %w", err)
	}
	return New(cfg.Tenants...)
}

// LoadFile parses the tenants config file at path.
func LoadFile(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	defer f.Close()
	reg, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return reg, nil
}

// Authenticate resolves an API key to its tenant. Unknown keys return
// ErrUnauthorized; keys of disabled tenants return ErrForbidden. The scan
// always compares against every configured key (constant-time compares,
// no early exit), so response time does not reveal near-misses.
func (r *Registry) Authenticate(key string) (Tenant, error) {
	keyB := []byte(key)
	match := -1
	for i, s := range r.list {
		if subtle.ConstantTimeCompare(keyB, []byte(s.t.Key)) == 1 {
			match = i
		}
	}
	if match < 0 {
		return Tenant{}, ErrUnauthorized
	}
	t := r.list[match].t
	if t.Disabled {
		return Tenant{}, fmt.Errorf("%w: tenant %q is disabled", ErrForbidden, t.ID)
	}
	return t, nil
}

// Label maps a tenant ID onto its metric label value: the ID itself, or
// "anonymous" for unauthenticated submissions, so the label is never
// empty. Tenant IDs come from the bounded -tenants config file, keeping
// the label's cardinality bounded too.
func Label(id string) string {
	if id == "" {
		return "anonymous"
	}
	return id
}

// Lookup returns the tenant declaration by ID.
func (r *Registry) Lookup(id string) (Tenant, bool) {
	if s, ok := r.byID[id]; ok {
		return s.t, true
	}
	return Tenant{}, false
}

// IDs returns the configured tenant IDs, sorted.
func (r *Registry) IDs() []string {
	ids := make([]string, 0, len(r.list))
	for _, s := range r.list {
		ids = append(ids, s.t.ID)
	}
	sort.Strings(ids)
	return ids
}

// Weight returns the tenant's scheduling weight (1 for unknown tenants, so
// unauthenticated deployments schedule plain FIFO within a priority).
func (r *Registry) Weight(id string) int {
	if r == nil {
		return 1
	}
	if s, ok := r.byID[id]; ok {
		return s.t.Weight
	}
	return 1
}

// Allow consumes one token from the tenant's rate bucket at time now. When
// the bucket is empty it returns ok=false and how long the caller should
// wait before retrying (the Retry-After header). Unknown tenants and
// tenants without a configured rate are always allowed.
func (r *Registry) Allow(id string, now time.Time) (ok bool, retryAfter time.Duration) {
	s, present := r.byID[id]
	if !present || s.t.RatePerSec <= 0 {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.last.IsZero() {
		if dt := now.Sub(s.last).Seconds(); dt > 0 {
			s.tokens = math.Min(s.burst, s.tokens+dt*s.t.RatePerSec)
		}
	}
	s.last = now
	if s.tokens >= 1 {
		s.tokens--
		return true, 0
	}
	// Round the refill wait up to whole seconds: Retry-After has 1s
	// resolution and rounding down would invite a guaranteed second 429.
	wait := (1 - s.tokens) / s.t.RatePerSec
	return false, time.Duration(math.Ceil(wait)) * time.Second
}
