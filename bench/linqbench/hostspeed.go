package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on the shared 2-vCPU VM the bounds were set on,
// a fixed arithmetic kernel ran up to 1.9× slower, in thread CPU time, in
// some minutes than in others, with steal below 0.5%, and every timing
// metric moved with it. A run therefore also times two fixed kernels on a
// generator thread throughout, and reports its timings scaled to a host on
// which the kernels take their nominal time. The kernels are this file's
// own code, so no change to the repository moves them except through the
// host.
const (
	hostSampleEvery = 20 * time.Millisecond
	rotatePasses    = 40 // rotate passes per sample
	hashPasses      = 4  // hash passes per sample

	// Nominal CPU time of one pass of each kernel: about the quiet-host
	// speed of the VM the bounds were set on.
	nominalRotateNs = 1900
	nominalHashNs   = 24000
)

// hostKernels holds the kernels' working sets, 16 KiB each so they stay in
// L1/L2 and time the core rather than the memory system, which linqd's own
// traffic would load.
type hostKernels struct {
	amps []complex128
	buf  []byte
	sink uint64
}

func newHostKernels() *hostKernels {
	k := &hostKernels{amps: make([]complex128, 1024), buf: make([]byte, 16<<10)}
	for i := range k.amps {
		k.amps[i] = complex(1/math.Sqrt(float64(len(k.amps))), 0)
	}
	for i := range k.buf {
		k.buf[i] = byte(i * 7)
	}
	return k
}

// rotate applies a fixed two-amplitude rotation across the vector, n times:
// floating-point work shaped like a statevector gate.
func (k *hostKernels) rotate(n int) {
	c, s := math.Cos(0.1), math.Sin(0.1)
	for range n {
		for i := 0; i+1 < len(k.amps); i += 2 {
			a, b := k.amps[i], k.amps[i+1]
			k.amps[i] = complex(c, 0)*a - complex(s, 0)*b
			k.amps[i+1] = complex(s, 0)*a + complex(c, 0)*b
		}
	}
}

// hash runs FNV-1a over the buffer, n times: integer and branch work.
func (k *hostKernels) hash(n int) {
	h := uint64(14695981039346656037)
	for range n {
		for _, c := range k.buf {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	k.sink ^= h
}

// threadCPU is the calling thread's CPU time, read with
// CLOCK_THREAD_CPUTIME_ID, which unlike getrusage counts to the nanosecond
// rather than to the scheduler tick; the caller must be locked to its
// thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if r, _, _ := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); r != 0 {
		return 0 // the caller drops samples that are not positive
	}
	return time.Duration(ts.Nano())
}

// timePasses returns the thread CPU time of one pass of f, in ns.
func timePasses(f func(int), n int) float64 {
	t := threadCPU()
	f(n)
	return float64(threadCPU()-t) / float64(n)
}

// hostSampler times the kernels every hostSampleEvery, on a goroutine
// locked to its thread, until its slowdown is read.
type hostSampler struct {
	stop chan struct{}
	done chan float64
	once sync.Once
	slow float64
}

func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newHostKernels()
		var slow []float64
		tick := time.NewTicker(hostSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r := timePasses(k.rotate, rotatePasses) / nominalRotateNs
				hs := timePasses(k.hash, hashPasses) / nominalHashNs
				if r > 0 && hs > 0 {
					slow = append(slow, math.Sqrt(r*hs))
				}
			case <-h.stop:
				f := quantile(slow, 0.5)
				if f == 0 { // stopped before the first sample
					f = 1
				}
				h.done <- f
				return
			}
		}
	}()
	return h
}

// slowdown stops the sampling, on the first call, and returns the host's
// slowdown over the time sampled: the median over samples of the geometric
// mean of each kernel's time over its nominal time. Thread CPU time leaves
// out waits for a CPU, so linqd's load on the two vCPUs does not count as a
// slow host.
func (h *hostSampler) slowdown() float64 {
	h.once.Do(func() {
		close(h.stop)
		h.slow = <-h.done
	})
	return h.slow
}
