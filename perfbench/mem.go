package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler tracks the peak resident memory of this process over a
// measured window, as the Go runtime accounts it: memory mapped by the
// runtime minus what it has released to the OS, sampled every 10 ms.
// Unlike the kernel's lifetime high-water mark it excludes set-up and the
// output checks that follow the window.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func residentBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	m.peak = residentBytes(s)
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.peak = max(m.peak, residentBytes(s))
				return
			case <-t.C:
				m.peak = max(m.peak, residentBytes(s))
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	m.done.Wait()
	return float64(m.peak) / (1 << 20)
}
