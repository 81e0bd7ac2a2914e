package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sink keeps the calibration work observable so it is not optimized away.
var sink atomic.Pointer[[32]byte]

// percentile returns the q-quantile (0..1) of ds by linear
// interpolation between closest ranks, in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (float64(s[hi])-float64(s[lo]))*(pos-float64(lo))
	return v / float64(time.Millisecond)
}

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler records the peak live Go heap (what the last garbage
// collection found reachable) in each of heapWindows consecutive
// windows of a phase. Unlike the heap's size between collections, the
// live heap does not depend on when collections happen; the median of
// the windows' peaks does not hang on the one collection that happened
// to fall on the largest transient structure.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks [heapWindows]uint64
}

const (
	heapMetric  = "/gc/heap/live:bytes"
	heapWindows = 6
)

// startHeapSampler samples the heap every few milliseconds until stop,
// over a phase expected to last phase.
func startHeapSampler(phase time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	window := max(phase/heapWindows, time.Millisecond)
	start := time.Now()
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			w := min(int(time.Since(start)/window), heapWindows-1)
			s.mu.Lock()
			s.peaks[w] = max(s.peaks[w], v)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median of the windows' peak
// heaps in MB. A window the phase ended before has no peak and is left
// out.
func (s *heapSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	var mb []float64
	for _, p := range s.peaks {
		if p > 0 {
			mb = append(mb, float64(p)/(1<<20))
		}
	}
	return medianFloat(mb)
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// allocCount returns the number of heap objects allocated so far by
// the whole process.
func allocCount() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// calibrateCores estimates how many cores the process really gets: it
// times equal CPU-bound work on one goroutine and on GOMAXPROCS
// goroutines at once (each doing the same amount). With p truly
// parallel cores the second takes as long as the first, so the
// estimate is p·t1/tp. The median of three trials is returned.
func calibrateCores() float64 {
	p := runtime.GOMAXPROCS(0)
	work := func() {
		var sum [32]byte
		for i := 0; i < 150000; i++ {
			sum = sha256.Sum256(sum[:])
		}
		sink.Store(&sum)
	}
	timeOn := func(n int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	work() // warm up
	var est []float64
	for trial := 0; trial < 3; trial++ {
		t1 := timeOn(1)
		tp := timeOn(p)
		est = append(est, float64(p)*float64(t1)/float64(tp))
	}
	return medianFloat(est)
}
