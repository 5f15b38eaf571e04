package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile, up to p99, with at least ten
// samples beyond it (nearest rank), with that percentile: the
// 11th-largest value at percentile 100·(n−10)/n below 1000 samples, p99
// from there on; below 11 samples, the maximum. The cap keeps the tail
// steady: on a shared 2-core VM, p99.9 of service-mixed (about 40
// samples beyond it) swung by 30% between runs with host stalls.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n < 11:
		return s[n-1], 100
	case n < 1000:
		return s[n-11], 100 * float64(n-10) / float64(n)
	}
	return s[int(math.Ceil(0.99*float64(n)))-1], 99
}

// timed is one passing op: when it finished, in seconds since its phase
// began, its wall-clock latency, and process CPU time in ms. With one
// caller, cpu is what the process used while the op ran; with concurrent
// callers, it is the process's running total when the op finished.
type timed struct{ at, ms, cpu float64 }

func lats(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.ms
	}
	return out
}

// windows is how many equal slices of time a measured phase is cut into.
// Each timing figure is the median of the slices' figures, so a host
// stall (CPU steal, a burst of someone else's disk writes) that covers
// part of a run moves a minority of the slices and not the result.
const windows = 5

// minWindow is the fewest samples a slice should hold, so that its tail
// is at least p95; a phase with fewer than windows·minWindow samples is
// cut into fewer slices.
const minWindow = 200

// split cuts a phase of span seconds into slices of equal time by when
// each op finished; ops finishing after the last boundary (in flight at
// the deadline) fall in the last slice.
func split(ts []timed, span float64) [][]timed {
	k := min(windows, max(1, len(ts)/minWindow))
	out := make([][]timed, k)
	for _, t := range ts {
		i := min(k-1, max(0, int(t.at/span*float64(k))))
		out[i] = append(out[i], t)
	}
	return out
}

// windowed is the median over the non-empty slices of f of each.
func windowed(ws [][]timed, f func([]timed) float64) float64 {
	var vs []float64
	for _, w := range ws {
		if len(w) > 0 {
			vs = append(vs, f(w))
		}
	}
	return median(vs)
}

// cpuPerOp is the median over ts's slices of the process CPU time per
// op. With concurrent callers a slice's figure is the growth of the
// running total between its first and last op, over the ops after the
// first.
func cpuPerOp(ts []timed, span float64, concurrent bool) float64 {
	return windowed(split(ts, span), func(w []timed) float64 {
		if !concurrent {
			c := 0.0
			for _, t := range w {
				c += t.cpu
			}
			return c / float64(len(w))
		}
		if len(w) < 2 {
			return 0
		}
		lo, hi := w[0].cpu, w[0].cpu
		for _, t := range w {
			lo, hi = min(lo, t.cpu), max(hi, t.cpu)
		}
		return (hi - lo) / float64(len(w)-1)
	})
}

// cpuMS reads the CPU time the process's threads have used, in ms.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// hostTicks reads from /proc/stat the machine's stolen CPU ticks and its
// total ones (zeros where it is missing).
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break // guest time is counted in user time already
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// stole while a phase ran. On the shared VM the benchmark was built on,
// the process's CPU time per op grew as 1/(1 − that share), though the
// kernel does not count stolen time as the process's: service-mixed read
// 0.88–1.00 ms per request over ten runs with no steal and 1.24–1.33 ms
// over five runs with 24–34% stolen (0.88–0.95 ms scaled by 1 − share),
// molecule-routed 176 ms per op with 0.5% stolen and 202–222 ms with
// 11–21% (175–184 ms scaled). The CPU figures the gate reads are scaled
// by (1 − share); the raw ones go in the run facts.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := hostTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := hostTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocBytes reads the cumulative bytes the Go heap has allocated.
// Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
