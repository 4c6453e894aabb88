package main

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"infera/internal/agent"
	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/sandbox"
	"infera/internal/service"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// bankShape is one bank workload: the 20-question eval bank asked by one
// closed-loop client of an in-process service with one worker.
type bankShape struct {
	name  string
	halos int
	// tiered runs the stage cache the way inferad does with -stage-dir:
	// a memTier-byte memory tier over a disk tier, with prefetch (on by
	// default) and watch on.
	tiered  bool
	memTier int64
}

var (
	// bankSmall is bench scale: fixed per-ask cost (rag, llm, provenance,
	// events) dominates and the data layers do little.
	bankSmall = bankShape{name: "bank-small", halos: 120}
	// bankLarge is 2500 halos per run: per-row cost (sandbox handoff,
	// script, provenance frames, sqldb) dominates, and its working set
	// is about three times the 1 MB memory tier, so every pass demotes
	// and promotes. At 5000 halos and a 2 MB tier (the same ratio) a 30 s
	// window held about 60 asks, three per question, too few to hold
	// throughput steady across seeds.
	bankLarge = bankShape{name: "bank-large", halos: 2500, tiered: true, memTier: 1 << 20}
)

// bankStride orders each pass over the bank: position i asks question
// (i*bankStride) mod 20. The bank is sorted by difficulty, so the stride
// spreads the slow questions evenly over the pass, and the partial pass a
// window ends in holds about the same mix whatever its length.
const bankStride = 7

// After its window a traced bank run, with its background work drained
// and its heap collected, times planProbes interactive asks of the
// one-step planProbeQs (submit to plan_proposed) and hitProbes
// answer-cache hits (re-asks of pairs it answered). The window itself has
// neither interactive asks nor hits.
const (
	hitProbes  = 20000
	planProbes = 30
)

var planProbeQs = []string{"q02", "q03", "q05"}

// sut is one system under test: an in-process service over its own stage
// cache.
type sut struct {
	svc *service.Service
	st  *stage.Cache
}

func (s *sut) close() {
	s.svc.Close()
	s.st.WaitPending()
	s.st.Close()
}

// defaultModel is the simulated model at its default error rates, so the
// QA/redo loop and the SQL error paths carry load.
func defaultModel(seed int64) llm.Client { return llm.NewSim(llm.SimConfig{Seed: seed}) }

func newStage(shape bankShape, dir string) (*stage.Cache, error) {
	if !shape.tiered {
		return stage.New(stage.DefaultBudgetBytes, 0), nil
	}
	st := stage.New(shape.memTier, 0)
	if err := st.SetDiskTier(dir, 0); err != nil {
		return nil, err
	}
	if err := st.SetWatch(true); err != nil {
		return nil, err
	}
	return st, nil
}

// startBank brings up the system under test for a bank workload.
func startBank(shape bankShape, ensDir, workDir string, newModel func(int64) llm.Client, metrics *telemetry.Registry) (*sut, error) {
	st, err := newStage(shape, filepath.Join(workDir, "stage"))
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		EnsembleDir:  ensDir,
		WorkDir:      filepath.Join(workDir, "service"),
		Workers:      1,
		ScriptLimits: sandbox.DefaultLimits(),
		Stage:        st,
		NewModel:     newModel,
		Metrics:      metrics,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &sut{svc: svc, st: st}, nil
}

// setupBank starts the system setupRepeats times over one work directory,
// as a daemon restarting over its state does, timing each start, and
// keeps the last one running. Creating the directories is paid once per
// deployment and is left out of the median.
func setupBank(shape bankShape, ensDir string, newModel func(int64) llm.Client, metrics *telemetry.Registry) (*sut, []time.Duration, error) {
	var times []time.Duration
	var s *sut
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			runtime.GC() // the closed system's garbage is not the next start's cost
		}
		workDir := filepath.Join(runDir, "setup")
		t0 := time.Now()
		var err error
		s, err = startBank(shape, ensDir, workDir, newModel, metrics)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return s, times, nil
}

// freshSeed draws a nonzero ask seed.
func freshSeed(rng *rand.Rand) int64 {
	for {
		if s := rng.Int63(); s != 0 {
			return s
		}
	}
}

// bankStream is the deterministic ask stream of a bank run: the bank in
// order, every ask with a fresh seed drawn from the workload seed.
type bankStream struct {
	bank []eval.Question
	rng  *rand.Rand
	i    int
}

func newBankStream(seed int64) *bankStream {
	return &bankStream{bank: eval.Bank(), rng: rand.New(rand.NewSource(seed))}
}

func (b *bankStream) next() (eval.Question, service.AskRequest) {
	q := b.bank[(b.i*bankStride)%len(b.bank)]
	b.i++
	return q, service.AskRequest{Question: q.Text, Seed: freshSeed(b.rng)}
}

// reviewedAsk is the in-process counterpart of client.ReviewedAsk: it
// approves every proposed plan and fills r with the result, the time from
// submit to the first plan_proposed event and the events seen.
func reviewedAsk(svc *service.Service, req service.AskRequest, r *askRec) {
	info, done, err := svc.AskInteractive(req)
	if err != nil {
		r.err = err
		return
	}
	after := 0
	ctx := context.Background()
	for {
		evs, closed, err := svc.WaitEvents(ctx, info.ID, after)
		if err != nil {
			r.err = err
			return
		}
		for _, ev := range evs {
			after = ev.Seq
			r.events++
			if ev.Kind != agent.EventPlanProposed && ev.Kind != agent.EventPlanRevised {
				continue
			}
			if r.plan == 0 {
				r.plan = time.Since(r.start)
			}
			if err := submitApproval(svc, info.ID); err != nil {
				r.err = err
				return
			}
		}
		if closed {
			break
		}
	}
	<-done
	r.res, r.err = svc.Result(info.ID)
}

// submitApproval approves the pending plan, retrying briefly: the plan
// event is emitted just before the approval gate arms.
func submitApproval(svc *service.Service, id string) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := svc.SubmitPlan(id, agent.PlanDecision{Approve: true})
		if err == nil || !errors.Is(err, agent.ErrNoPendingPlan) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// runBank runs one bank workload.
func runBank(shape bankShape, seed int64, win time.Duration, trace bool) (*result, error) {
	ensDir, err := cachedEnsemble(shape.halos, seed)
	if err != nil {
		return nil, err
	}
	oracle, err := NewOracle(ensDir)
	if err != nil {
		return nil, err
	}
	if trace {
		return traceBank(shape, seed, ensDir, oracle, win)
	}
	s, setup, err := setupBank(shape, ensDir, defaultModel, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	defer s.close()
	stream := newBankStream(seed)
	warmUp(s.svc, stream)

	w := &window{setup: setup, balanced: true, versions: map[int][]version{0: {{oracle: oracle}}}}
	w.recs, w.before, w.after = closedLoop(s.svc, stream, win)
	return endToEndMetrics(w), nil
}

// quiesce drains the stage cache's background writes and collects the
// heap, so a probe starts from the same state in every run.
func (s *sut) quiesce() {
	s.st.WaitPending()
	runtime.GC()
}

// warmUp runs one untimed ask so the window starts with the code paths,
// the heap and the caches warm.
func warmUp(svc *service.Service, stream *bankStream) {
	q := stream.bank[1]
	if _, err := svc.Ask(service.AskRequest{Question: q.Text, Seed: freshSeed(stream.rng)}); err != nil {
		logf("warm-up ask: %v", err)
	}
	runtime.GC()
}

// closedLoop asks the stream's questions one after another until win has
// passed, recording each ask's CPU time and allocation.
func closedLoop(svc *service.Service, stream *bankStream, win time.Duration) ([]*askRec, usage, usage) {
	var recs []*askRec
	before := readUsage()
	deadline := before.at.Add(win)
	for prev := before; time.Now().Before(deadline); {
		q, req := stream.next()
		r := &askRec{qid: q.ID, kind: kindMiss, start: time.Now()}
		r.res, r.err = svc.Ask(req)
		r.end = time.Now()
		u := readUsage()
		r.cpu, r.alloc = u.cpu-prev.cpu, u.alloc-prev.alloc
		prev = u
		recs = append(recs, r)
	}
	return recs, before, readUsage()
}

// probePlans runs the interactive plan probe.
func probePlans(svc *service.Service, stream *bankStream) []*askRec {
	byID := map[string]eval.Question{}
	for _, q := range stream.bank {
		byID[q.ID] = q
	}
	var recs []*askRec
	for i := 0; i < planProbes; i++ {
		q := byID[planProbeQs[i%len(planProbeQs)]]
		r := &askRec{qid: q.ID, kind: kindInteractive, start: time.Now()}
		reviewedAsk(svc, service.AskRequest{Question: q.Text, Seed: freshSeed(stream.rng)}, r)
		r.end = time.Now()
		recs = append(recs, r)
	}
	return recs
}

// probeHits times answer-cache hits by re-asking the most recent pairs
// the window answered without error.
func probeHits(svc *service.Service, recs []*askRec) []time.Duration {
	var pairs []service.AskRequest
	for i := len(recs) - 1; i >= 0 && len(pairs) < 50; i-- {
		r := recs[i]
		if r.err == nil && r.res != nil && r.res.Error == "" {
			pairs = append(pairs, service.AskRequest{Question: r.res.Question, Seed: r.res.Seed})
		}
	}
	var out []time.Duration
	for i := 0; len(pairs) > 0 && i < hitProbes; i++ {
		t0 := time.Now()
		res, err := svc.Ask(pairs[i%len(pairs)])
		d := time.Since(t0)
		if err == nil && res.Cached {
			out = append(out, d)
		}
	}
	return out
}

// traceBank is the traced run of a bank workload.
func traceBank(shape bankShape, seed int64, ensDir string, oracle Oracle, win time.Duration) (*result, error) {
	tr := &tracer{}
	reg := telemetry.NewRegistry()
	workDir := filepath.Join(runDir, "trace")
	s, err := startBank(shape, ensDir, workDir, tr.newModel, reg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	stream := newBankStream(seed)
	warmUp(s.svc, stream)
	in := layerInputs{
		workload: shape.name,
		seed:     seed,
		tracer:   tr,
		askLoop: func(win time.Duration) ([]*askRec, usage, usage) {
			return closedLoop(s.svc, stream, win)
		},
		stages: []*stage.Cache{s.st},
		regs:   []*telemetry.Registry{reg},
		sessionDirs: func() map[sessionKey]string {
			return findSessions(workDir, func(string) int { return 0 })
		},
		probe: func(answered []*askRec) ([]*askRec, []time.Duration) {
			s.quiesce()
			plans := probePlans(s.svc, stream)
			s.quiesce()
			return plans, probeHits(s.svc, answered)
		},
		ensDirs:  []string{ensDir},
		rewrites: func() int { return 0 },
		versions: map[int][]version{0: {{oracle: oracle}}},
	}
	if shape.tiered {
		in.stageDir = filepath.Join(workDir, "stage")
	}
	return runTraced(in, win)
}
