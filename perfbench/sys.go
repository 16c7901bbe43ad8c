package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// memSnap is the allocation and GC counters at one instant.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func (a memSnap) since(b memSnap) memSnap {
	return memSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs}
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of a few set-up timings.
func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	return quantile(cp, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// sleepUntil sleeps until t. Go's timers have about a millisecond of
// granularity here, so callers record how late they woke.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sliceQuantiles buckets values by their timestamp into slices of the
// given width within [from, to), takes each quantile per slice (slices
// with fewer than minN values are skipped), and returns the median of
// each quantile across slices. A stall confined to one slice moves the
// result no more than any other slice does.
func sliceQuantiles(at []time.Duration, vals []float64, width, from, to time.Duration, minN int, qs ...float64) []float64 {
	buckets := map[int][]float64{}
	for i, t := range at {
		if t < from || t >= to {
			continue
		}
		k := int((t - from) / width)
		buckets[k] = append(buckets[k], vals[i])
	}
	per := make([][]float64, len(qs))
	var all []float64
	for _, b := range buckets {
		all = append(all, b...)
		if len(b) < minN {
			continue
		}
		sort.Float64s(b)
		for j, q := range qs {
			per[j] = append(per[j], quantile(b, q))
		}
	}
	if len(per[0]) == 0 {
		// Too short a run for full slices: one slice spans the range.
		for j, q := range qs {
			per[j] = append(per[j], quantile(all, q))
		}
	}
	out := make([]float64, len(qs))
	for j := range qs {
		out[j] = median(per[j])
	}
	return out
}

// mark is one sample of a running counter and the process CPU time.
type mark struct {
	at  time.Time
	n   int64
	cpu time.Duration
}

// sampler records a counter and the process CPU time at a fixed period
// until stopped.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	marks []mark
}

func startSampler(every time.Duration, count func() int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.marks = append(s.marks, mark{time.Now(), count(), cpuTime()})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.marks = append(s.marks, mark{time.Now(), count(), cpuTime()})
				return
			case <-tick.C:
				s.marks = append(s.marks, mark{time.Now(), count(), cpuTime()})
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median, across its intervals
// inside [from, to] (a zero to means no bound), of the counter's rate per
// second and of CPU microseconds per count. Intervals shorter than half a
// period (the last one) are skipped.
func (s *sampler) finish(every time.Duration, from, to time.Time) (rate, cpuPer float64) {
	close(s.stop)
	<-s.done
	var rates, cpus []float64
	for i := 1; i < len(s.marks); i++ {
		a, b := s.marks[i-1], s.marks[i]
		dt := b.at.Sub(a.at)
		dn := b.n - a.n
		if dt < every/2 || dn <= 0 || a.at.Before(from) || (!to.IsZero() && b.at.After(to)) {
			continue
		}
		rates = append(rates, float64(dn)/dt.Seconds())
		cpus = append(cpus, micros(b.cpu-a.cpu)/float64(dn))
	}
	if len(rates) == 0 && len(s.marks) > 1 {
		// A run shorter than one period: the whole span is one interval.
		a, b := s.marks[0], s.marks[len(s.marks)-1]
		if dn := b.n - a.n; dn > 0 {
			return float64(dn) / b.at.Sub(a.at).Seconds(), micros(b.cpu-a.cpu) / float64(dn)
		}
	}
	return median(rates), median(cpus)
}
