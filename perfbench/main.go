// Command perfbench is ParGeo's repository benchmark. One run executes
// one workload for a fixed time and prints, as the last line of its
// standard output, a JSON object with the operations attempted and
// failed, whether every checked answer was correct, and the metrics:
// the end-to-end ones in a measured run (-trace 0), the per-layer ones
// in a traced run (-trace 1).
//
//	perfbench -workload paper-batch|serve-read|serve-write -seed N \
//	    -seconds S -trace 0|1 -server path/to/pargeo-serve -work DIR
//
// run.sh builds pargeo-serve and this command from the enclosing tree and
// passes -server and -work; see README.md for the workloads, metrics and
// checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and accumulates its result.
type bench struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serverBin string
	work      string // scratch directory, removed at exit
	spanDir   string // where a traced run writes its spans
	manifest  string // BENCHMARK.json, naming the metrics a run must report

	res    result
	mu     sync.Mutex // guards wrongs
	wrongs []string   // failed checks, in order
	spans  spanLog
	setups int // servers founded so far, naming their directories
}

func (b *bench) set(name, unit string, v float64) { b.res.Metrics[name] = metric{Value: v, Unit: unit} }

// wrong records a failed correctness check.
func (b *bench) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wrongs = append(b.wrongs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: WRONG:", msg)
}

// check records err, if any, as a failed correctness check.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.wrong("%s: %v", what, err)
	}
}

func main() {
	var b bench
	var seconds, trace int
	flag.StringVar(&b.workload, "workload", "", "paper-batch, serve-read or serve-write")
	flag.Uint64Var(&b.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer peel and reports per-layer metrics")
	flag.StringVar(&b.serverBin, "server", "", "pargeo-serve binary built from the tree under test")
	flag.StringVar(&b.work, "work", "", "scratch directory (WAL directories); removed at exit")
	flag.StringVar(&b.spanDir, "spans", "", "directory a traced run writes its spans to")
	flag.StringVar(&b.manifest, "manifest", "", "BENCHMARK.json; the run fails unless it reports exactly the metrics listed there")
	flag.Parse()
	b.seconds, b.trace = float64(seconds), trace == 1
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b.res.Correct = len(b.wrongs) == 0
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

func (b *bench) run() error {
	if b.seconds < 1 || b.serverBin == "" || b.work == "" {
		return fmt.Errorf("need -seconds ≥ 1, -server and -work")
	}
	if _, err := os.Stat(b.serverBin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	b.work = filepath.Join(b.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	b.res.Metrics = map[string]metric{}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		b.workload, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0))
	var err error
	switch {
	case b.workload == "paper-batch" && !b.trace:
		err = b.paperBatch()
	case b.workload == "paper-batch":
		err = b.tracePaperBatch()
	case b.workload == "serve-read" || b.workload == "serve-write":
		cfg := serveConfigs[b.workload]
		if b.trace {
			err = b.traceServe(cfg)
		} else {
			err = b.serve(cfg)
		}
	default:
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if err != nil {
		return err
	}
	if b.trace {
		if err := b.spans.write(b.spanDir, b.workload, b.seed); err != nil {
			return err
		}
	}
	return b.matchManifest()
}

// matchManifest checks that the run set exactly the metrics the manifest
// lists for its mode, each in its unit: end_to_end for a measured run,
// per_layer for a traced one.
func (b *bench) matchManifest() error {
	if b.manifest == "" {
		return nil
	}
	raw, err := os.ReadFile(b.manifest)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", b.manifest, err)
	}
	want := m.EndToEnd
	if b.trace {
		want = m.PerLayer
	}
	var problems []string
	for _, e := range want {
		got, ok := b.res.Metrics[e.Name]
		switch {
		case !ok:
			problems = append(problems, e.Name+" missing")
		case got.Unit != e.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, listed in %s", e.Name, got.Unit, e.Unit))
		}
	}
	if len(b.res.Metrics) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics set, %d listed", len(b.res.Metrics), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics do not match %s: %s", b.manifest, strings.Join(problems, "; "))
	}
	return nil
}

// --- small statistics -----------------------------------------------------

// quantile is the q-quantile of xs by linear interpolation (xs unsorted;
// a sorted copy is made). Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durs converts durations to float seconds.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the VmHWM of process pid ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// procCPU is the CPU time (user + system) process pid has used so far,
// in seconds, from /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start with
	// the state, so utime and stime (fields 14 and 15) are at 11 and 12.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, fmt.Errorf("no command name in /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return (u + s) / 100, nil
}

// selfCPU is the CPU time (user + system) this process has used so far,
// in seconds, to the microsecond.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuTimes reads the host's cumulative CPU ticks from /proc/stat: the
// total and the share stolen by the hypervisor for other guests.
func cpuTimes() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is inside user
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the share of CPU time stolen from this host over
// an interval.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s := cpuTimes()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTimes()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// calmest returns the indices of the samples whose steal share is at most
// the median share: the half of a run the hypervisor disturbed least.
// On a shared host a window in which other guests took the CPUs measures
// them, not the program.
func calmest(steal []float64) []int {
	limit := median(steal)
	var keep []int
	for i, s := range steal {
		if s <= limit {
			keep = append(keep, i)
		}
	}
	return keep
}

// table prints rows of a layer breakdown: name, value, share of total.
func table(title, unit string, total float64, rows [][2]any) {
	fmt.Printf("\n%s (end-to-end median %.4g %s)\n", title, total, unit)
	for _, r := range rows {
		v := r[1].(float64)
		fmt.Printf("  %-44s %12.4g %s  %6.1f%%\n", r[0], v, unit, 100*v/total)
	}
}

// scale returns xs, each multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
