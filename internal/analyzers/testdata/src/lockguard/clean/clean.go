// Package clean holds lock usage that must produce no lockguard
// diagnostics.
package clean

import (
	"context"
	"os"
	"sync"
)

type Backend interface {
	Compile(ctx context.Context, src string) (string, error)
}

type pool struct {
	mu      sync.Mutex
	f       *os.File
	written int64
	cond    *sync.Cond
	ch      chan int
	backend Backend
	queue   []int
	closed  bool
}

// unlockBeforeSend is the dance the analyzer exists to enforce: snapshot
// under the lock, release, then communicate.
func (p *pool) unlockBeforeSend() {
	p.mu.Lock()
	var v int
	if len(p.queue) > 0 {
		v = p.queue[0]
		p.queue = p.queue[1:]
	}
	p.mu.Unlock()
	p.ch <- v
}

// condWait is legal: sync.Cond.Wait requires the lock by contract.
func (p *pool) condWait() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		p.cond.Wait()
	}
	v := p.queue[0]
	p.queue = p.queue[1:]
	return v
}

// nonBlockingPoll is legal: a select with a default branch cannot block.
func (p *pool) nonBlockingPoll(v int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- v:
		return true
	default:
		return false
	}
}

// goroutineEscape is legal: starting a goroutine is non-blocking and its
// body runs outside this critical section.
func (p *pool) goroutineEscape(ctx context.Context, src string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		_, _ = p.backend.Compile(ctx, src)
	}()
}

// compileOutside does the expensive call first and only locks to record
// the result.
func (p *pool) compileOutside(ctx context.Context, src string) (string, error) {
	out, err := p.backend.Compile(ctx, src)
	p.mu.Lock()
	p.closed = err != nil
	p.mu.Unlock()
	return out, err
}

// exempted shows the escape hatch with a reason.
func (p *pool) exempted(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	//lint:lockguard-exempt buffered channel sized to the worker count; send cannot block
	p.ch <- v
}

// fsyncOutside writes under the lock but fsyncs after releasing it, the
// group-commit shape: the page cache takes the write, the disk flush
// stalls no caller of the lock.
func (p *pool) fsyncOutside(b []byte) error {
	p.mu.Lock()
	n, err := p.f.Write(b)
	p.written += int64(n)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.f.Sync()
}

// notAFile is legal: a Sync method that takes arguments is not an fsync.
type notAFile interface{ Sync(v int) error }

func (p *pool) syncWithArgs(n notAFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return n.Sync(1)
}
