// Package flagged exercises every lockguard diagnostic.
package flagged

import (
	"context"
	"net/http"
	"os"
	"sync"
	"time"
)

type Backend interface {
	Compile(ctx context.Context, src string) (string, error)
	Simulate(ctx context.Context, prog string, shots int) ([]byte, error)
}

// syncer is a file as a write-ahead log sees it; an *os.File satisfies it.
type syncer interface {
	Write(p []byte) (int, error)
	Sync() error
}

type store struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	f       *os.File
	log     syncer
	ch      chan int
	wg      sync.WaitGroup
	client  *http.Client
	backend Backend
	state   map[string]int
}

func (s *store) sendHeld(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) recvHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while s\.mu is held`
}

func (s *store) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want `blocking WaitGroup\.Wait while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Second) // want `time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) httpHeld(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = http.Get(url)     // want `net/http call Get while s\.mu is held`
	_, _ = s.client.Get(url) // want `http\.Client\.Get while s\.mu is held`
}

func (s *store) compileHeld(ctx context.Context, src string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend.Compile(ctx, src) // want `Backend Compile call while s\.mu is held`
}

func (s *store) selectHeld(ctx context.Context) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch: // want `channel receive while s\.mu is held`
		return v
	case <-ctx.Done(): // want `channel receive while s\.mu is held`
		return 0
	}
}

func (s *store) fsyncHeld(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(b); err != nil {
		return err
	}
	return s.f.Sync() // want `fsync \(File\.Sync\) while s\.mu is held`
}

func (s *store) fsyncInterfaceHeld() error {
	s.rw.RLock()
	err := s.log.Sync() // want `fsync \(syncer\.Sync\) while s\.rw is held`
	s.rw.RUnlock()
	return err
}
