package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. On a shared host the CPU's speed drifts by ±15%
// over seconds, and a run's thread CPU time drifts with its wall time, so
// it is the hardware, not the scheduler. A probe goroutine runs a fixed,
// allocation-free kernel every probeEvery and times it on its own
// thread's CPU clock, which the benchmark's own load cannot inflate. A
// pass's host times are divided by the probe's slowdown over the pass,
// which cut the bucket-to-bucket variation of a simulation's wall time
// from 13% to 4% on a 2-vCPU Xeon.
const (
	probeEvery  = 25 * time.Millisecond
	probeWindow = time.Second // probes this far either side of an interval count for it
	// probeNominal is the kernel's median time on the 2-vCPU Xeon the
	// README's baselines come from; normalized times are seconds on that
	// host at its median speed.
	probeNominal = 210 * time.Microsecond
	probeKeys    = 2000
)

// hostProbe samples host speed until close.
type hostProbe struct {
	stop, done chan struct{}

	mu  sync.Mutex
	at  []time.Time
	cpu []time.Duration
}

func startProbe() *hostProbe {
	p := &hostProbe{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		// Room for 10 minutes of samples, so the probe itself does not
		// allocate while a pass is measured.
		at:  make([]time.Time, 0, 24000),
		cpu: make([]time.Duration, 0, 24000),
	}
	go p.loop()
	return p
}

func (p *hostProbe) loop() {
	defer close(p.done)
	// The thread CPU clock belongs to the OS thread, so keep the goroutine
	// on one.
	runtime.LockOSThread()
	k := newProbeKernel(probeKeys)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		c0 := threadCPU()
		probeSink += k.run()
		d := threadCPU() - c0
		p.mu.Lock()
		p.at = append(p.at, time.Now())
		p.cpu = append(p.cpu, d)
		p.mu.Unlock()
	}
}

// close stops the probe and waits for it.
func (p *hostProbe) close() {
	close(p.stop)
	<-p.done
}

// slowdown is the host's speed over [from, to] relative to nominal: the
// mean probe time in the widened interval over probeNominal, or 1 without
// probes. The mean, not the median: a stall the host imposes in bursts
// lengthens the measured work by its whole duration, and so it should
// the estimate (this cut the residual spread from 4.3% to 3.7%).
func (p *hostProbe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(from.Add(-probeWindow)) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(to.Add(probeWindow)) })
	if lo >= hi {
		return 1
	}
	var sum time.Duration
	for _, d := range p.cpu[lo:hi] {
		sum += d
	}
	return float64(sum) / float64(hi-lo) / float64(probeNominal)
}

var probeSink uint64

// probeKernel mixes what the simulator spends its time on: integer
// arithmetic, map updates, a sort and dependent loads. It reuses its map
// and slice, so a run allocates nothing.
type probeKernel struct {
	m map[uint64]uint64
	s []uint64
}

func newProbeKernel(n int) *probeKernel {
	return &probeKernel{m: make(map[uint64]uint64, n), s: make([]uint64, n)}
}

func (k *probeKernel) run() uint64 {
	clear(k.m)
	n := uint64(len(k.s))
	x := uint64(88172645463325252)
	for i := range k.s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.s[i] = x
		k.m[x%n] += x
	}
	slices.Sort(k.s)
	var h uint64
	for _, v := range k.s {
		h = h*31 + v + k.m[v%n]
	}
	return h
}

// threadCPU reads the calling OS thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which has nanosecond resolution where
// getrusage's thread times advance in scheduler ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
