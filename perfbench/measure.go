package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// meter measures one phase of a run from the outside: wall time, process
// CPU (user+sys, every goroutine including an in-process server), bytes
// allocated, and the peak live heap. Allocation comes from the runtime's
// cumulative /gc/heap/allocs:bytes counter rather than ReadMemStats, which
// stops the world.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64

	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

// phase is what a meter measured.
type phase struct {
	Wall       time.Duration
	CPU        time.Duration
	AllocBytes uint64
	PeakLive   uint64
}

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	liveMetric   = "/gc/heap/live:bytes"
	heapSampling = 10 * time.Millisecond
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter begins a phase and samples the live heap until finish.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), peak: readMetric(liveMetric)}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(heapSampling)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				v := readMetric(liveMetric)
				m.mu.Lock()
				m.peak = max(m.peak, v)
				m.mu.Unlock()
			}
		}
	}()
	m.cpu0 = processCPU()
	m.alloc0 = readMetric(allocsMetric)
	m.start = time.Now()
	return m
}

// finish ends the phase and stops the heap sampler.
func (m *meter) finish() phase {
	p := phase{
		Wall:       time.Since(m.start),
		CPU:        processCPU() - m.cpu0,
		AllocBytes: readMetric(allocsMetric) - m.alloc0,
	}
	close(m.stop)
	m.wg.Wait()
	p.PeakLive = max(m.peak, readMetric(liveMetric))
	return p
}

// bandMean is the mean of the sorted values that lie between the lo- and
// hi-quantile positions lo*n and hi*n; a value the band cuts counts by the
// share of it inside the band (0 for no values). Per-op latencies fall in
// clusters with wide gaps between them: store hits and emulator replays on
// the sweeps, short requests and deep rv64c searches on gpd-plan. The p50
// of sweep-warm and the p90 of gpd-plan land in such gaps and jump from
// run to run, while the mean over a band moves only as the values inside
// it do. 0 <= lo < hi <= 1.
func bandMean(vals []float64, lo, hi float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	a, b := lo*float64(n), hi*float64(n)
	var sum float64
	for i, v := range s {
		// Value i covers the positions [i, i+1).
		if w := math.Min(b, float64(i+1)) - math.Max(a, float64(i)); w > 0 {
			sum += w * v
		}
	}
	return sum / (b - a)
}

// quantile is the Harrell-Davis estimate of the q-quantile of vals: the
// mean of the order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
// distribution over their ranks (0 for no values). It smooths a single
// order statistic but still follows a quantile into the gap between two
// clusters, so the run prints it for reading only. 0 < q < 1.
func quantile(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, v := range s {
		cur := incBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * v
		prev = cur
	}
	return sum
}

// incBeta is the regularized incomplete beta function I_x(a, b).
func incBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates incBeta's continued fraction by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d, c = 1/clamp(1+even*d), clamp(1+even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d, c = 1/clamp(1+odd*d), clamp(1+odd/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median is the sample median of vals (0 for no values).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
