package bench

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process counters the
// end-to-end metrics are deltas of.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtime/metrics names of the runtime layer.
const (
	mGC     = "/cpu/classes/gc/total:cpu-seconds"
	mAssist = "/cpu/classes/gc/mark/assist:cpu-seconds"
	mIdle   = "/cpu/classes/idle:cpu-seconds"
	mTotal  = "/cpu/classes/total:cpu-seconds"
	mMutex  = "/sync/mutex/wait/total:seconds"
	mSched  = "/sched/latencies:seconds"
)

// rtSample is a reading of the runtime's CPU classes, mutex wait and
// scheduling-latency histogram.
type rtSample struct {
	gc, idle, total, mutex, assist float64
	sched                          []uint64
	buckets                        []float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mGC}, {Name: mIdle}, {Name: mTotal}, {Name: mMutex}, {Name: mSched}, {Name: mAssist}}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	r := rtSample{gc: f(0), idle: f(1), total: f(2), mutex: f(3), assist: f(5)}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		r.sched = append([]uint64(nil), h.Counts...)
		r.buckets = h.Buckets
	}
	return r
}

// rtDelta accumulates runtime readings over the traced repetitions only.
type rtDelta struct {
	gc, idle, total, mutex, assist float64
	sched                          []uint64
	buckets                        []float64
}

func (d *rtDelta) add(before, after rtSample) {
	d.gc += after.gc - before.gc
	d.idle += after.idle - before.idle
	d.total += after.total - before.total
	d.mutex += after.mutex - before.mutex
	d.assist += after.assist - before.assist
	if len(after.sched) != len(before.sched) {
		return
	}
	if d.sched == nil {
		d.sched = make([]uint64, len(after.sched))
		d.buckets = after.buckets
	}
	for i := range after.sched {
		d.sched[i] += after.sched[i] - before.sched[i]
	}
}

// histPercentile is the p-quantile of a runtime/metrics histogram,
// interpolated linearly inside the bucket that holds it (an infinite
// bucket edge is replaced by the finite one).
func histPercentile(counts []uint64, buckets []float64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(buckets) != len(counts)+1 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return buckets[len(buckets)-2]
}
