package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infera/internal/llm"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// perLayer lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. A layer that carries no work on a workload
// reports 0 for its counts and ratios; every time is measured on every
// workload, by replay where the live run has none.
var perLayer = []metricDef{
	{"llm.calls_per_ask", "count"},
	{"llm.ms_per_ask", "ms"},
	{"llm.tokens_per_call", "tokens"},
	{"agent.redo_per_ask", "count"},
	{"agent.giveup_ratio", "ratio"},
	{"agent.phase_plan_ms", "ms"},
	{"agent.phase_stage_ms", "ms"},
	{"agent.phase_query_ms", "ms"},
	{"agent.phase_qa_ms", "ms"},
	{"agent.phase_python_ms", "ms"},
	{"agent.phase_viz_ms", "ms"},
	{"agent.unattributed_ms", "ms"},
	{"rag.retrieve_us", "us"},
	{"rag.retrieve_allocs", "count"},
	{"rag.calls_per_ask", "count"},
	{"rag.index_build_ms", "ms"},
	{"gio.decode_mb_per_s", "MB/s"},
	{"gio.opens_per_ask", "count"},
	{"stage.mem_hit_ratio", "ratio"},
	{"stage.disk_hits_per_ask", "count"},
	{"stage.promoted_mb_per_ask", "MB"},
	{"stage.demoted_mb_per_ask", "MB"},
	{"stage.promote_us_per_mb", "us/MB"},
	{"stage.cold_us_per_mb", "us/MB"},
	{"stage.mem_hit_us", "us"},
	{"stage.prefetch_used_ratio", "ratio"},
	{"stage.mapped_mb", "MB"},
	{"stage.invalidations_per_rewrite", "count"},
	{"sqldb.append_ms_per_ask", "ms"},
	{"sqldb.query_us", "us"},
	{"sqldb.queries_per_ask", "count"},
	{"sqldb.query_error_ratio", "ratio"},
	{"sqldb.scanned_mb_per_ask", "MB"},
	{"sandbox.execs_per_ask", "count"},
	{"sandbox.exec_ms", "ms"},
	{"sandbox.handoff_ms_per_exec", "ms"},
	{"sandbox.handoff_mb_per_exec", "MB"},
	{"sandbox.error_ratio", "ratio"},
	{"script.run_ms_per_exec", "ms"},
	{"script.fuel_per_exec", "count"},
	{"provenance.records_per_ask", "count"},
	{"provenance.files_per_ask", "count"},
	{"provenance.bytes_per_ask", "bytes"},
	{"provenance.checkpoint_kb_per_ask", "KB"},
	{"provenance.write_ms_per_ask", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.hit_us", "us"},
	{"service.fingerprint_us", "us"},
	{"http.hit_overhead_us", "us"},
	{"client.events_per_interactive_ask", "count"},
	{"client.plan_ms", "ms"},
	{"client.hit_p50_ms", "ms"},
	{"client.hit_p90_ms", "ms"},
	{"client.ask_p90_ms", "ms"},
	{"fleet.forward_overhead_us", "us"},
	{"fleet.forward_balance", "ratio"},
	{"fleet.retries_per_ask", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// llmCall is one model round of a traced ask.
type llmCall struct {
	Skill  string    `json:"skill"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Tokens int       `json:"tokens"`
	Failed bool      `json:"failed,omitempty"`
}

// capture is what the recording model saw during one uncached ask: every
// call, the plan, and the SQL and scripts it emitted.
type capture struct {
	seed    int64
	mu      sync.Mutex
	calls   []llmCall
	plan    *llm.Plan
	sql     []string
	scripts []string
}

// recordingModel wraps the workload's model, timing each Complete and
// keeping what it generated for the per-layer replays.
type recordingModel struct {
	inner llm.Client
	cap   *capture
}

func (m *recordingModel) Name() string       { return m.inner.Name() }
func (m *recordingModel) ContextWindow() int { return m.inner.ContextWindow() }

func (m *recordingModel) Complete(req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := m.inner.Complete(req)
	call := llmCall{Skill: req.Skill, Start: start, End: time.Now(), Tokens: resp.Usage.Total(), Failed: err != nil}
	m.cap.mu.Lock()
	defer m.cap.mu.Unlock()
	m.cap.calls = append(m.cap.calls, call)
	if err != nil {
		return resp, err
	}
	switch req.Skill {
	case llm.SkillPlan:
		var p llm.Plan
		if json.Unmarshal([]byte(resp.Text), &p) == nil {
			m.cap.plan = &p
		}
	case llm.SkillSQL:
		var r llm.SQLResponse
		if json.Unmarshal([]byte(resp.Text), &r) == nil && r.SQL != "" {
			m.cap.sql = append(m.cap.sql, r.SQL)
		}
	case llm.SkillScript, llm.SkillViz:
		var r llm.ScriptResponse
		if json.Unmarshal([]byte(resp.Text), &r) == nil && r.Code != "" {
			m.cap.scripts = append(m.cap.scripts, r.Code)
		}
	}
	return resp, nil
}

// tracer is the model factory of a traced run: plain models while off,
// recording ones while on.
type tracer struct {
	on       atomic.Bool
	mu       sync.Mutex
	captures []*capture
}

func (t *tracer) newModel(seed int64) llm.Client {
	m := defaultModel(seed)
	if !t.on.Load() {
		return m
	}
	c := &capture{seed: seed}
	t.mu.Lock()
	t.captures = append(t.captures, c)
	t.mu.Unlock()
	return &recordingModel{inner: m, cap: c}
}

// counters is a snapshot of the counters the program keeps: the stage
// caches' stats and every telemetry series.
type counters struct {
	stage stage.Stats
	prom  []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func snapshot(stages []*stage.Cache, regs []*telemetry.Registry) counters {
	var c counters
	for _, st := range stages {
		addStats(&c.stage, st.Stats())
	}
	for _, r := range regs {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			continue // a registry that cannot encode contributes nothing
		}
		c.prom = append(c.prom, parseProm(buf.String())...)
	}
	return c
}

// addStats sums the counters the traced run reads.
func addStats(dst *stage.Stats, s stage.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Opens += s.Opens
	dst.BytesDecoded += s.BytesDecoded
	dst.Invalidations += s.Invalidations
	dst.DiskHits += s.DiskHits
	dst.PromotedBytes += s.PromotedBytes
	dst.Demotions += s.Demotions
	dst.DemotedBytes += s.DemotedBytes
	dst.DiskInvalidations += s.DiskInvalidations
	dst.PrefetchUsed += s.PrefetchUsed
	dst.PrefetchWasted += s.PrefetchWasted
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) []promSample {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// sum adds the samples of one series name whose labels include match.
func (c counters) sum(name string, match map[string]string) float64 {
	var t float64
	for _, s := range c.prom {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// delta is the change of one series between two snapshots.
func delta(a, b counters, name string, match map[string]string) float64 {
	return b.sum(name, match) - a.sum(name, match)
}

// perNode returns the value of name per label value of key.
func (c counters) perNode(name, key string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range c.prom {
		if s.name == name {
			out[s.labels[key]] += s.value
		}
	}
	return out
}

// mappedMB sums the address space this process maps from files under
// dir, read from /proc/self/maps: the stage disk tier's promoted blocks.
func mappedMB(dir string) float64 {
	if dir == "" {
		return 0
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 0
	}
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0
	}
	var total float64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasPrefix(f[5], abs+string(filepath.Separator)) {
			continue
		}
		lo, hi, ok := strings.Cut(f[0], "-")
		if !ok {
			continue
		}
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 == nil && err2 == nil && b > a {
			total += float64(b - a)
		}
	}
	return total / (1 << 20)
}

// span is one timed interval of the trace the traced run writes out.
type span struct {
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  any       `json:"attrs,omitempty"`
}

// writeSpans writes the run's spans, one JSON object per line, to
// .bench_build/traces/<workload>-<seed>.jsonl.
func writeSpans(workload string, seed int64, spans []span) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("write spans: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			logf("write spans: %v", err)
			return
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		logf("write spans: %v", err)
		return
	}
	logf("wrote %d spans to %s", len(spans), path)
}

// askSpans turns the traced window's asks and their model calls into
// spans: one per ask, with its model rounds as children.
func askSpans(recs []*askRec, caps map[int64][]*capture) []span {
	var out []span
	for i, r := range recs {
		id := fmt.Sprintf("ask-%d", i)
		attrs := map[string]any{"question": r.qid, "kind": [...]string{"miss", "hit", "interactive"}[r.kind], "ensemble": r.ens}
		if r.res != nil {
			attrs["cached"] = r.res.Cached
			attrs["tokens"] = r.res.Tokens
			attrs["redo"] = r.res.RedoCount
		}
		out = append(out, span{Trace: id, Name: "ask", Start: r.start, End: r.end, Attrs: attrs})
		if r.res == nil || r.res.Cached {
			continue
		}
		for _, c := range caps[r.res.Seed] {
			c.mu.Lock()
			for _, call := range c.calls {
				if call.Start.Before(r.start) || call.End.After(r.end) {
					continue
				}
				out = append(out, span{Trace: id, Name: "llm." + call.Skill, Parent: "ask", Start: call.Start, End: call.End,
					Attrs: map[string]any{"tokens": call.Tokens}})
			}
			c.mu.Unlock()
		}
	}
	return out
}

// layerInputs is what a workload hands the traced run.
type layerInputs struct {
	workload string
	seed     int64
	tracer   *tracer
	// askLoop runs the workload's clients for win.
	askLoop func(win time.Duration) ([]*askRec, usage, usage)
	// probe, when set, runs after the window: interactive asks for
	// client.plan_ms and timed answer-cache hits of answered pairs for
	// client.hit_*. Without it the window's interactive asks and hits
	// serve.
	probe  func(answered []*askRec) ([]*askRec, []time.Duration)
	stages []*stage.Cache
	regs   []*telemetry.Registry
	// routerReg is the fleet router's registry; nil without a router.
	routerReg *telemetry.Registry
	// sessionDirs lists the provenance session directories of the asks
	// the run computed, keyed by ensemble index and session ID.
	sessionDirs func() map[sessionKey]string
	ensDirs     []string
	// stageDir is the disk tier directory; empty without one.
	stageDir string
	rewrites func() int
	// versions are the ensembles' data states the answers are judged by.
	versions map[int][]version
}

type sessionKey struct {
	ens int
	id  string
}

// runTraced splits the window into untraced, traced, traced and untraced
// quarters, so a drift in speed over the run (caches filling, the heap
// growing) cancels out of trace.overhead_ratio, and returns the per-layer
// metrics from the traced half and the replays.
func runTraced(in layerInputs, win time.Duration) (*result, error) {
	quarter := win / 4
	untraced, ub, ua := in.askLoop(quarter)

	regs := append(append([]*telemetry.Registry(nil), in.regs...), in.routerReg)
	before := snapshot(in.stages, regs)
	rw0 := in.rewrites()
	in.tracer.on.Store(true)
	traced, tb, ta := in.askLoop(2 * quarter)
	in.tracer.on.Store(false)
	after := snapshot(in.stages, regs)
	rewrites := in.rewrites() - rw0
	untraced2, ub2, ua2 := in.askLoop(quarter)
	untracedTime := ua.at.Sub(ub.at) + ua2.at.Sub(ub2.at)
	untraced = append(untraced, untraced2...)
	interactiveRecs := traced
	var probes []*askRec
	var hitLat []float64
	for _, r := range traced {
		if r.err == nil && r.res != nil && r.res.Cached {
			hitLat = append(hitLat, ms(r.latency()))
		}
	}
	if in.probe != nil {
		var hits []time.Duration
		probes, hits = in.probe(traced)
		interactiveRecs = probes
		hitLat = hitLat[:0]
		for _, h := range hits {
			hitLat = append(hitLat, ms(h))
		}
	}

	caps := map[int64][]*capture{}
	for _, c := range in.tracer.captures {
		caps[c.seed] = append(caps[c.seed], c)
	}
	m := map[string]float64{}
	var uncached, giveUps, redo, interactive, events, hits, completed int
	for _, r := range traced {
		if r.err != nil || r.res == nil {
			continue
		}
		completed++
		if r.res.Error != "" && isGiveUp(r.res.Error) {
			giveUps++
		}
		if r.res.Cached {
			hits++
		} else {
			uncached++
			redo += r.res.RedoCount
		}
	}
	var plans []float64
	for _, r := range interactiveRecs {
		if r.kind == kindInteractive && r.err == nil {
			interactive++
			events += r.events
			if r.plan > 0 {
				plans = append(plans, ms(r.plan))
			}
		}
	}
	if uncached == 0 {
		return nil, fmt.Errorf("traced window computed no uncached asks")
	}
	perUncached := func(x float64) float64 { return x / float64(uncached) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// llm: the recording model's calls.
	var calls, tokens int
	var llmTime time.Duration
	for _, c := range in.tracer.captures {
		for _, call := range c.calls {
			calls++
			tokens += call.Tokens
			llmTime += call.End.Sub(call.Start)
		}
	}
	m["llm.calls_per_ask"] = perUncached(float64(calls))
	m["llm.ms_per_ask"] = perUncached(ms(llmTime))
	m["llm.tokens_per_call"] = ratio(float64(tokens), float64(calls))

	// agent: phase spans the workflow records into telemetry.
	m["agent.redo_per_ask"] = perUncached(float64(redo))
	m["agent.giveup_ratio"] = ratio(float64(giveUps), float64(completed))
	var phaseSum float64
	for _, p := range []string{"plan", "stage", "query", "qa", "python", "viz"} {
		v := perUncached(1000 * delta(before, after, "infera_ask_phase_seconds_sum", map[string]string{"phase": p}))
		m["agent.phase_"+p+"_ms"] = v
		phaseSum += v
	}
	total := perUncached(1000 * delta(before, after, "infera_ask_phase_seconds_sum", map[string]string{"phase": "total"}))
	m["agent.unattributed_ms"] = total - phaseSum

	// stage, gio and sqldb counters.
	ds := diffStats(before.stage, after.stage)
	m["gio.opens_per_ask"] = perUncached(float64(ds.Opens))
	m["stage.mem_hit_ratio"] = ratio(float64(ds.Hits), float64(ds.Hits+ds.Misses+ds.DiskHits))
	m["stage.disk_hits_per_ask"] = perUncached(float64(ds.DiskHits))
	m["stage.promoted_mb_per_ask"] = perUncached(float64(ds.PromotedBytes) / (1 << 20))
	m["stage.demoted_mb_per_ask"] = perUncached(float64(ds.DemotedBytes) / (1 << 20))
	m["stage.prefetch_used_ratio"] = ratio(float64(ds.PrefetchUsed), float64(ds.PrefetchUsed+ds.PrefetchWasted))
	m["stage.mapped_mb"] = mappedMB(in.stageDir)
	m["stage.invalidations_per_rewrite"] = ratio(float64(ds.Invalidations+ds.DiskInvalidations), float64(rewrites))
	m["sqldb.queries_per_ask"] = perUncached(delta(before, after, "infera_sql_query_seconds_count", nil))
	m["sqldb.scanned_mb_per_ask"] = perUncached(delta(before, after, "infera_sql_scanned_bytes_total", nil) / (1 << 20))

	// service and fleet counters.
	m["service.queue_wait_ms"] = 1000 * ratio(delta(before, after, "infera_queue_wait_seconds_sum", nil),
		delta(before, after, "infera_queue_wait_seconds_count", nil))
	m["service.hit_ratio"] = ratio(float64(hits), float64(completed))
	m["client.events_per_interactive_ask"] = ratio(float64(events), float64(interactive))
	m["client.plan_ms"] = median(plans)
	m["client.hit_p50_ms"] = quantile(hitLat, 0.5)
	m["client.hit_p90_ms"] = quantile(hitLat, 0.9)
	var askLat []float64
	for _, r := range traced {
		if r.res == nil || !r.res.Cached {
			askLat = append(askLat, ms(r.latency()))
		}
	}
	m["client.ask_p90_ms"] = quantile(askLat, 0.9)
	m["fleet.retries_per_ask"] = ratio(delta(before, after, "infera_fleet_retries_total", nil)+
		delta(before, after, "infera_fleet_failovers_total", nil), float64(len(traced)))
	m["fleet.forward_balance"] = forwardBalance(before, after)

	m["trace.overhead_ratio"] = overheadRatio(untraced, traced, untracedTime, ta.at.Sub(tb.at))

	spans := askSpans(traced, caps)
	corpus, err := buildCorpus(traced, caps, in.sessionDirs())
	if err != nil {
		return nil, err
	}
	replaySpans, err := replayLayers(in, corpus, m)
	if err != nil {
		return nil, err
	}
	writeSpans(in.workload, in.seed, append(spans, replaySpans...))

	all := append(append(untraced, traced...), probes...)
	res := &result{Correct: true, Attempted: len(all), Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, r := range all {
		if err := judge(r, in.versions[r.ens]); err != nil && !errors.Is(err, errGiveUp) {
			res.Failed++
			res.Correct = false
			logf("failed: %s: %v", r.qid, err)
		}
	}
	logf("traced run: %d untraced and %d traced asks (%d uncached, %d model calls)", len(untraced), len(traced), uncached, calls)
	return res, nil
}

// overheadRatio is the traced asks' latency over the untraced asks'. The
// quarters hold different question mixes, so it compares per question:
// the sum over questions asked in both modes of the mean traced latency,
// over the same sum untraced. Without common questions it falls back to
// the ratio of ask rates.
func overheadRatio(untraced, traced []*askRec, untracedTime, tracedTime time.Duration) float64 {
	type key struct {
		qid    string
		cached bool
	}
	group := func(recs []*askRec) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			if r.err == nil && r.res != nil {
				k := key{r.qid, r.res.Cached}
				out[k] = append(out[k], ms(r.latency()))
			}
		}
		return out
	}
	u, t := group(untraced), group(traced)
	var su, st float64
	for k, tv := range t {
		uv, ok := u[k]
		if !ok {
			continue
		}
		su += mean(uv)
		st += mean(tv)
	}
	if su > 0 {
		return st / su
	}
	return (float64(len(untraced)) / untracedTime.Seconds()) / (float64(len(traced)) / tracedTime.Seconds())
}

func diffStats(a, b stage.Stats) stage.Stats {
	return stage.Stats{
		Hits:              b.Hits - a.Hits,
		Misses:            b.Misses - a.Misses,
		Opens:             b.Opens - a.Opens,
		BytesDecoded:      b.BytesDecoded - a.BytesDecoded,
		Invalidations:     b.Invalidations - a.Invalidations,
		DiskHits:          b.DiskHits - a.DiskHits,
		PromotedBytes:     b.PromotedBytes - a.PromotedBytes,
		Demotions:         b.Demotions - a.Demotions,
		DemotedBytes:      b.DemotedBytes - a.DemotedBytes,
		DiskInvalidations: b.DiskInvalidations - a.DiskInvalidations,
		PrefetchUsed:      b.PrefetchUsed - a.PrefetchUsed,
		PrefetchWasted:    b.PrefetchWasted - a.PrefetchWasted,
	}
}

// forwardBalance is max/min router forwards per node over the window; 0
// without a router.
func forwardBalance(before, after counters) float64 {
	b := before.perNode("infera_fleet_forwards_total", "node")
	a := after.perNode("infera_fleet_forwards_total", "node")
	if len(a) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), 0.0
	for node, v := range a {
		d := v - b[node]
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}
