package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// allocSample is the runtime's cumulative heap-allocation counter. It
// counts every byte the process allocates, so a delta over a phase is
// that phase's allocation volume, independent of GC timing.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuSeconds is the user plus system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread only.
const rusageThread = 1

// threadSeconds is the CPU time of the calling OS thread so far. Unlike
// wall time it leaves out time the thread waited: on I/O, on locks, or
// for a virtual CPU the host had taken away. It is a diagnostic beside
// the wall-clock figures, not a gated metric.
func threadSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// stealSeconds is the time the host has taken away from this machine's
// virtual CPUs so far, averaged over them: the steal column of
// /proc/stat, in USER_HZ ticks. It reads 0 where /proc/stat is missing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			if total, err = strconv.ParseFloat(f[8], 64); err != nil {
				return 0
			}
			continue
		}
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return total / userHZ / float64(cpus)
}

// userHZ is the unit of /proc/stat's times on Linux.
const userHZ = 100

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cost is what one timed phase consumed.
type cost struct {
	Wall   float64 // seconds
	Steal  float64 // seconds the host took from each CPU, on average
	Time   float64 // Wall less Steal: the seconds the machine had
	Thread float64 // CPU seconds of the thread that ran the phase
	CPU    float64 // CPU seconds of the whole process
	Alloc  float64 // MB
}

// meter brackets a phase: take one before it, call done after it.
type meter struct {
	t0      time.Time
	steal0  float64
	thread0 float64
	cpu0    float64
	heap0   uint64
}

func startMeter() meter {
	return meter{t0: time.Now(), steal0: stealSeconds(), thread0: threadSeconds(), cpu0: cpuSeconds(), heap0: heapAllocs()}
}

func (m meter) done() cost {
	c := cost{
		Wall:   time.Since(m.t0).Seconds(),
		Steal:  stealSeconds() - m.steal0,
		Thread: threadSeconds() - m.thread0,
		CPU:    cpuSeconds() - m.cpu0,
		Alloc:  float64(heapAllocs()-m.heap0) / 1e6,
	}
	c.Time = c.Wall - c.Steal
	return c
}

// quantile is the linearly interpolated p-quantile of xs (the
// "inclusive" method); xs is not modified. It returns NaN when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// costs collects per-iteration costs and reports their medians.
type costs []cost

func (cs costs) median(field func(cost) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = field(c)
	}
	return median(xs)
}

func timeOf(c cost) float64   { return c.Time }
func wallOf(c cost) float64   { return c.Wall }
func threadOf(c cost) float64 { return c.Thread }
func cpuOf(c cost) float64    { return c.CPU }
func allocOf(c cost) float64  { return c.Alloc }

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
