package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"infera/internal/service"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"asks_per_s", "1/s"},
	{"ask_p50_ms", "ms"},
	{"cpu_ms_per_ask", "ms"},
	{"alloc_mb_per_ask", "MB"},
	{"peak_rss_mb", "MB"},
	{"tokens_per_ask", "tokens"},
	{"storage_kb_per_ask", "KB"},
}

// setupRepeats is how many times a run brings the system under test up;
// setup_s is the median.
const setupRepeats = 41

type askKind int

const (
	kindMiss        askKind = iota // fresh seed: misses the answer cache
	kindHit                        // hot-set pair: served from the answer cache once computed
	kindInteractive                // streaming session with an auto-approving reviewer
)

// askRec is one ask of the measured window.
type askRec struct {
	qid        string
	kind       askKind
	ens        int // ensemble (shard) index
	start, end time.Time
	// plan is the time from submit to the plan_proposed event, for
	// interactive asks; 0 when the event was not seen.
	plan time.Duration
	// events counts the lifecycle events an interactive ask's client saw.
	events int
	// cpu and alloc are the process CPU time and heap bytes allocated
	// while the ask ran; set on the bank workloads, whose one client runs
	// one ask at a time.
	cpu   time.Duration
	alloc uint64
	res   *service.AskResult
	err   error
}

func (r *askRec) latency() time.Duration { return r.end.Sub(r.start) }

// version is one state of an ensemble's data and the oracle for it.
// ready is when the rewrite that produced it finished (zero for the
// generated state).
type version struct {
	ready  time.Time
	oracle Oracle
}

// errStale marks an answer computed from data a finished rewrite had
// already replaced.
var errStale = errors.New("stale answer")

// errGiveUp marks an ask the agent reported as failed after a step used
// up its revision budget on the simulated model's injected errors. The
// outcome is decided by the ask's model seed: it is the honest answer to
// that ask, not a fault of the program.
var errGiveUp = errors.New("agent gave up")

// maxGiveUpRatio bounds the give-ups a correct run shows. The default
// simulated model gives up on about 8% of bank asks; a broken layer that
// makes every code step fail would show as give-ups too, so a run far
// above that rate is not correct.
const maxGiveUpRatio = 0.25

// isGiveUp reports whether an AskResult error is the agent's own report
// of a step that exhausted its revisions (agent.ErrFailed from
// stepFailed).
func isGiveUp(msg string) bool {
	return strings.HasPrefix(msg, "agent: run failed: ") && strings.Contains(msg, " step exhausted ")
}

// judge applies the failure rule to one ask. An ask fails when it
// returned an error, carries AskResult.Error, disagrees with the oracle,
// or returns pre-rewrite data although it started more than
// service.DefaultFingerprintTTL after the rewrite finished. versions are
// the ask's ensemble states in rewrite order.
func judge(r *askRec, versions []version) error {
	if r.err != nil {
		return r.err
	}
	if r.res == nil {
		return errors.New("no result")
	}
	if r.res.Error != "" {
		if isGiveUp(r.res.Error) {
			return fmt.Errorf("%w: %s", errGiveUp, r.res.Error)
		}
		return fmt.Errorf("ask error: %s", r.res.Error)
	}
	if len(versions) == 0 || !versions[0].oracle.Checkable(r.qid) {
		return nil
	}
	// Versions older than the newest one whose rewrite finished a full
	// fingerprint TTL before the ask began are stale for this ask; any
	// later version that was published before the ask ended is fresh.
	oldest := 0
	for i, v := range versions {
		if i > 0 && v.ready.Add(service.DefaultFingerprintTTL).Before(r.start) {
			oldest = i
		}
	}
	var firstErr error
	for i := oldest; i < len(versions); i++ {
		if i > 0 && versions[i].ready.After(r.end) {
			break
		}
		err := versions[i].oracle.Check(r.qid, r.res.AnswerCSV)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < oldest; i++ {
		if versions[i].oracle.Check(r.qid, r.res.AnswerCSV) == nil {
			return fmt.Errorf("%w: %s matches data replaced %v before the ask", errStale, r.qid, r.start.Sub(versions[i+1].ready).Round(time.Millisecond))
		}
	}
	return firstErr
}

// usage is the process resource counters at one instant.
type usage struct {
	at  time.Time
	cpu time.Duration
	// sys is the kernel share of cpu.
	sys   time.Duration
	alloc uint64
	// peakRSSMB is the process's peak resident set size so far.
	peakRSSMB float64
}

// readUsage reads the counters. The cumulative heap allocation comes from
// runtime/metrics, which does not stop the world, so it can be read
// around every ask.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocSample)
	return usage{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		sys:       time.Duration(ru.Stime.Nano()),
		alloc:     allocSample[0].Value.Uint64(),
		peakRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// quantile is the Harrell-Davis estimate of the q-quantile of v (sorted
// in place): a weighted mean of every order statistic with Beta weights
// centred on q. A ranked-sample percentile jumps between neighbouring
// order statistics, which on a bimodal sample of a few dozen asks (the
// bank's slow questions) moves p90 by half its value from run to run.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	if n == 1 {
		return v[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaCDF(float64(i)/float64(n), a, b)
		est += (cur - prev) * v[i-1]
		prev = cur
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b).
func betaCDF(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is what a workload hands to endToEndMetrics.
type window struct {
	setup  []time.Duration
	recs   []*askRec
	before usage
	after  usage
	// balanced weighs every bank question equally in the per-ask
	// statistics (see stat).
	balanced bool
	versions map[int][]version
}

// balancedPoints is how many quantile points each question contributes to
// a balanced sample.
const balancedPoints = 8

// stat returns the mean and a sample of a per-ask value over recs. On a
// balanced window each question weighs the same: the mean is the mean of
// the per-question means, and the sample holds balancedPoints quantiles
// of each question's values. A bank-large window holds two or three
// passes over a bank whose questions differ in cost by two orders of
// magnitude, so which questions a window happened to end on would
// otherwise move every per-ask figure by a fifth.
func (w *window) stat(recs []*askRec, val func(*askRec) (float64, bool)) (float64, []float64) {
	groups := map[string][]float64{}
	var all []float64
	for _, r := range recs {
		v, ok := val(r)
		if !ok {
			continue
		}
		all = append(all, v)
		groups[r.qid] = append(groups[r.qid], v)
	}
	if len(all) == 0 {
		return math.NaN(), nil
	}
	if !w.balanced {
		return mean(all), all
	}
	var means, sample []float64
	for _, g := range groups {
		means = append(means, mean(g))
		sort.Float64s(g)
		for i := 0; i < balancedPoints; i++ {
			pos := (float64(i) + 0.5) / balancedPoints * float64(len(g)-1)
			lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
			sample = append(sample, g[lo]+(g[hi]-g[lo])*(pos-float64(lo)))
		}
	}
	return mean(means), sample
}

// endToEndMetrics turns one measured window into the result line. failed
// counts the asks the program got wrong; give-ups are reported on stderr
// and in the traced run's agent.giveup_ratio.
func endToEndMetrics(w *window) *result {
	ok, failed, giveUps := 0, 0, 0
	var failures []string
	for _, r := range w.recs {
		switch err := judge(r, w.versions[r.ens]); {
		case err == nil:
			ok++
		case errors.Is(err, errGiveUp):
			giveUps++
		default:
			failed++
			if len(failures) < 20 {
				failures = append(failures, fmt.Sprintf("%s: %v", r.qid, err))
			}
		}
	}
	answered := func(r *askRec) bool { return r.err == nil && r.res != nil }
	uncached := func(r *askRec) bool { return answered(r) && !r.res.Cached }
	meanLat, lat := w.stat(w.recs, func(r *askRec) (float64, bool) { return ms(r.latency()), r.res == nil || !r.res.Cached })
	tokens, _ := w.stat(w.recs, func(r *askRec) (float64, bool) { return float64(r.res.Tokens), uncached(r) })
	storage, _ := w.stat(w.recs, func(r *askRec) (float64, bool) { return float64(r.res.StorageBytes) / 1024, uncached(r) })

	var completed int
	for _, r := range w.recs {
		if answered(r) {
			completed++
		}
	}
	wall := w.after.at.Sub(w.before.at)
	// Closed loop: asks that completed without failing per second. On a
	// balanced window that is the share of such asks over the balanced
	// mean latency (one client, one ask at a time).
	rate := float64(ok+giveUps) / wall.Seconds()
	cpu := ms(w.after.cpu-w.before.cpu) / math.Max(1, float64(completed))
	alloc := float64(w.after.alloc-w.before.alloc) / (1 << 20) / math.Max(1, float64(completed))
	if w.balanced {
		rate = float64(ok+giveUps) / float64(len(w.recs)) * 1000 / meanLat
		cpu, _ = w.stat(w.recs, func(r *askRec) (float64, bool) { return ms(r.cpu), answered(r) })
		alloc, _ = w.stat(w.recs, func(r *askRec) (float64, bool) { return float64(r.alloc) / (1 << 20), answered(r) })
	}
	var setup []float64
	for _, d := range w.setup {
		setup = append(setup, d.Seconds())
	}
	m := map[string]float64{
		"setup_s":            median(setup),
		"asks_per_s":         rate,
		"ask_p50_ms":         quantile(lat, 0.5),
		"cpu_ms_per_ask":     cpu,
		"alloc_mb_per_ask":   alloc,
		"peak_rss_mb":        w.after.peakRSSMB,
		"tokens_per_ask":     tokens,
		"storage_kb_per_ask": storage,
	}
	correct := failed == 0 && float64(giveUps) <= maxGiveUpRatio*float64(len(w.recs))
	res := &result{Correct: correct, Attempted: len(w.recs), Failed: failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	logf("%d asks (%d ok, %d failed, %d model give-ups, fail_ratio %.4f) in %v, %.1f ms CPU per ask of which %.1f ms kernel",
		len(w.recs), ok, failed, giveUps, float64(failed+giveUps)/float64(len(w.recs)),
		wall.Round(time.Millisecond), ms(w.after.cpu-w.before.cpu)/math.Max(1, float64(len(w.recs))),
		ms(w.after.sys-w.before.sys)/math.Max(1, float64(len(w.recs))))
	for _, f := range failures {
		logf("failed: %s", f)
	}
	return res
}
