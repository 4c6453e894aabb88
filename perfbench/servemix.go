package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"infera/internal/agent"
	"infera/internal/client"
	"infera/internal/eval"
	"infera/internal/fleet"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/sandbox"
	"infera/internal/service"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// serve-mix shape: two inferad nodes behind a router, two shards, two
// closed-loop HTTP clients. At bench scale (120 halos per run) a miss is
// dominated by the files it creates, and the workload's throughput
// follows the file system's latency from run to run; at 1000 halos the
// same mix is CPU-bound.
const (
	mixNodes    = 2
	mixClients  = 2
	mixHalos    = 1000
	hitShare    = 0.70 // asks that repeat a hot-set pair
	missShare   = 0.20 // fresh-seed asks; the rest are interactive
	hotPairs    = 8
	rewriteEach = 100 // every n-th ask rewrites one gio file first
)

// hotQuestions are the checkable bank questions the hot set draws from,
// so every hit is verified and a stale hit after a rewrite is caught.
var hotQuestions = []string{"q01", "q02", "q03", "q05", "q06", "q08", "q14"}

// mixNode is one in-process inferad: registry, HTTP server and its own
// stage cache and telemetry, as a separate daemon process would have.
type mixNode struct {
	name    string
	reg     *service.Registry
	srv     *service.Server
	st      *stage.Cache
	metrics *telemetry.Registry
}

func (n *mixNode) base() string { return "http://" + n.srv.Addr() }

// fleetSUT is the serve-mix system under test.
type fleetSUT struct {
	nodes         []*mixNode
	router        *fleet.Router
	routerMetrics *telemetry.Registry
	shards        []string
}

func (f *fleetSUT) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		n.reg.Close()
		n.srv.Close()
		n.st.Close()
	}
}

// shardNames picks one shard name per ensemble such that the shards land
// on distinct ring members, so both nodes carry load. Placement is a pure
// function of the names, so the choice is the same on every run.
func shardNames(nodes []string, n int) []string {
	ring := fleet.NewRing(fleet.DefaultVNodes)
	for _, nd := range nodes {
		ring.Add(nd)
	}
	used := map[string]bool{}
	var out []string
	for i := 0; len(out) < n && i < 1000; i++ {
		name := fmt.Sprintf("mix-%d", i)
		owner, _ := ring.Owner(name)
		if used[owner] && len(used) < len(nodes) {
			continue
		}
		used[owner] = true
		out = append(out, name)
	}
	return out
}

// startFleet brings up the nodes and the router, registers one shard per
// ensemble through the router and warms it (the lazy shard open every
// deployment pays once).
func startFleet(workRoot string, ensDirs []string, newModel func(int64) llm.Client) (*fleetSUT, error) {
	f := &fleetSUT{routerMetrics: telemetry.NewRegistry()}
	var specs, names []string
	for i := 0; i < mixNodes; i++ {
		st := stage.New(stage.DefaultBudgetBytes, 0)
		if err := st.SetWatch(true); err != nil {
			f.close()
			return nil, err
		}
		n := &mixNode{name: fmt.Sprintf("node-%d", i), st: st, metrics: telemetry.NewRegistry()}
		n.reg = service.NewRegistry(service.RegistryConfig{
			Defaults: service.Config{
				NewModel:        newModel,
				ScriptLimits:    sandbox.DefaultLimits(),
				Stage:           st,
				Metrics:         n.metrics,
				ApprovalTimeout: time.Minute,
			},
			WorkDir: workRoot,
			NodeID:  n.name,
		})
		n.srv = service.NewServer(n.reg)
		if err := n.srv.Start("127.0.0.1:0"); err != nil {
			n.reg.Close()
			st.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		specs = append(specs, n.name+"="+n.base())
		names = append(names, n.name)
	}
	f.router = fleet.New(fleet.Config{Nodes: specs, ProbeInterval: 100 * time.Millisecond, Metrics: f.routerMetrics})
	if err := f.router.Start("127.0.0.1:0"); err != nil {
		f.router = nil
		f.close()
		return nil, err
	}
	cli := client.New(f.router.Addr())
	if err := cli.WaitReady(10 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	f.shards = shardNames(names, len(ensDirs))
	for i, dir := range ensDirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			f.close()
			return nil, err
		}
		if _, err := cli.RegisterShard(service.RegisterRequest{Name: f.shards[i], Dir: abs}); err != nil {
			f.close()
			return nil, fmt.Errorf("register %s: %w", f.shards[i], err)
		}
		if _, err := cli.Warm(f.shards[i]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm %s: %w", f.shards[i], err)
		}
	}
	return f, nil
}

// setupFleet starts the fleet setupRepeats times over one work root, as a
// fleet restarting over its state does, timing each start, and keeps the
// last one running.
func setupFleet(ensDirs []string, newModel func(int64) llm.Client) (*fleetSUT, []time.Duration, error) {
	var times []time.Duration
	var f *fleetSUT
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
			runtime.GC() // the closed fleet's garbage is not the next start's cost
		}
		root := filepath.Join(runDir, "fleet")
		t0 := time.Now()
		var err error
		f, err = startFleet(root, ensDirs, newModel)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return f, times, nil
}

// mixEnsembles copies the two serve-mix ensembles of seed into the run
// directory, since the workload rewrites their files.
func mixEnsembles(seed int64) ([]string, error) {
	var dirs []string
	for i := 0; i < 2; i++ {
		src, err := cachedEnsemble(mixHalos, seed*2+int64(i))
		if err != nil {
			return nil, err
		}
		dst := filepath.Join(runDir, fmt.Sprintf("ensemble-%d", i))
		if err := copyTree(src, dst); err != nil {
			return nil, err
		}
		dirs = append(dirs, dst)
	}
	return dirs, nil
}

// hotPair is one (question, seed, shard) the hot set repeats.
type hotPair struct {
	q    eval.Question
	seed int64
	ens  int
}

// mixPlan is the deterministic part of a serve-mix run: the hot set, the
// per-client ask streams and the rewrite schedule, all from the seed.
type mixPlan struct {
	hot     []hotPair
	bank    []eval.Question
	byID    map[string]eval.Question
	targets [][2]int // (run, step) of the haloproperties files rewrites rotate over
	rng     *rand.Rand
}

func newMixPlan(seed int64) *mixPlan {
	p := &mixPlan{bank: eval.Bank(), byID: map[string]eval.Question{}}
	for _, q := range p.bank {
		p.byID[q.ID] = q
	}
	rng := rand.New(rand.NewSource(seed))
	p.rng = rng
	for i := 0; i < hotPairs; i++ {
		p.hot = append(p.hot, hotPair{
			q:    p.byID[hotQuestions[rng.Intn(len(hotQuestions))]],
			seed: freshSeed(rng),
			ens:  i % 2,
		})
	}
	// The files the hot questions read: a rewrite of any of them must
	// reach the next hit once the fingerprint TTL has passed. The seed
	// orders them.
	p.targets = [][2]int{{0, 498}, {1, 624}, {0, 624}, {0, 249}, {2, 624}}
	rng.Shuffle(len(p.targets), func(i, j int) { p.targets[i], p.targets[j] = p.targets[j], p.targets[i] })
	return p
}

// mixState is the shared state of the serve-mix clients.
type mixState struct {
	mu       sync.Mutex
	asks     int
	rewrites int
	windows  int
	versions map[int][]version
	dirs     []string
	plan     *mixPlan
	err      error
}

// maybeRewrite performs the rewrite that every rewriteEach-th ask is
// preceded by: it replaces one haloproperties file of one ensemble and
// records the new data version with the time the rename finished.
func (m *mixState) maybeRewrite() {
	m.mu.Lock()
	m.asks++
	due := m.asks%rewriteEach == 0
	k := m.rewrites
	if due {
		m.rewrites++
	}
	m.mu.Unlock()
	if !due {
		return
	}
	ens := k % 2
	tgt := m.plan.targets[(k/2)%len(m.plan.targets)]
	cat, err := hacc.Load(m.dirs[ens])
	if err == nil {
		fe, ok := cat.Find(tgt[0], tgt[1], hacc.FileHalos)
		if !ok {
			err = fmt.Errorf("no haloproperties file for run %d step %d", tgt[0], tgt[1])
		} else {
			// Alternate up and down so values stay in range however many
			// rewrites a run makes.
			factor := 1.03
			if (k/2)%2 == 1 {
				factor = 1 / 1.03
			}
			err = rewriteHalos(cat.AbsPath(fe), factor)
		}
	}
	ready := time.Now()
	var o Oracle
	if err == nil {
		o, err = NewOracle(m.dirs[ens])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("rewrite %d: %w", k, err)
		}
		return
	}
	m.versions[ens] = append(m.versions[ens], version{ready: ready, oracle: o})
}

// mixClient is one closed-loop HTTP client with its own connection pool.
type mixClient struct {
	cli    *client.Client
	tr     *http.Transport
	rng    *rand.Rand
	shards []string
	plan   *mixPlan
	n      int
}

func newMixClient(base string, shards []string, plan *mixPlan, seed int64, idx int) *mixClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &mixClient{
		cli:    client.New(base).WithHTTPClient(&http.Client{Transport: tr}),
		tr:     tr,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(idx) + 1)),
		shards: shards,
		plan:   plan,
		n:      idx,
	}
}

// ask draws the next ask from the client's stream and runs it.
func (c *mixClient) ask() *askRec {
	u := c.rng.Float64()
	var q eval.Question
	var req service.AskRequest
	var ens int
	kind := kindMiss
	switch {
	case u < hitShare:
		h := c.plan.hot[c.rng.Intn(len(c.plan.hot))]
		q, ens, kind = h.q, h.ens, kindHit
		req = service.AskRequest{Question: q.Text, Seed: h.seed}
	default:
		q = c.plan.bank[c.n%len(c.plan.bank)]
		c.n += mixClients
		ens = c.rng.Intn(len(c.shards))
		req = service.AskRequest{Question: q.Text, Seed: freshSeed(c.rng)}
		if u >= hitShare+missShare {
			kind = kindInteractive
		}
	}
	r := &askRec{qid: q.ID, kind: kind, ens: ens, start: time.Now()}
	eid := c.shards[ens]
	if kind == kindInteractive {
		req.Interactive = true
		r.res, r.err = c.cli.ReviewedAsk(eid, req,
			func(agent.Event) agent.PlanDecision { return agent.PlanDecision{Approve: true} },
			func(ev agent.Event) {
				r.events++
				if ev.Kind == agent.EventPlanProposed && r.plan == 0 {
					r.plan = time.Since(r.start)
				}
			})
	} else {
		r.res, r.err = c.cli.Ask(eid, req)
	}
	r.end = time.Now()
	return r
}

// runMixWindow drives the clients for win and returns every ask. Each
// window draws fresh client streams, so a second window's fresh-seed asks
// do not repeat the first's.
func runMixWindow(f *fleetSUT, state *mixState, seed int64, win time.Duration) ([]*askRec, usage, usage) {
	var mu sync.Mutex
	var recs []*askRec
	var wg sync.WaitGroup
	state.mu.Lock()
	round := state.windows
	state.windows++
	state.mu.Unlock()
	before := readUsage()
	deadline := before.at.Add(win)
	for i := 0; i < mixClients; i++ {
		c := newMixClient(f.router.Addr(), f.shards, state.plan, seed, round*mixClients+i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.tr.CloseIdleConnections()
			for time.Now().Before(deadline) {
				state.maybeRewrite()
				r := c.ask()
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, before, readUsage()
}

// runServeMix runs the serve-mix workload.
func runServeMix(seed int64, win time.Duration, trace bool) (*result, error) {
	dirs, err := mixEnsembles(seed)
	if err != nil {
		return nil, err
	}
	state := &mixState{versions: map[int][]version{}, dirs: dirs, plan: newMixPlan(seed)}
	for i, d := range dirs {
		o, err := NewOracle(d)
		if err != nil {
			return nil, err
		}
		state.versions[i] = []version{{oracle: o}}
	}
	if trace {
		return traceServeMix(seed, dirs, state, win)
	}
	f, setup, err := setupFleet(dirs, defaultModel)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := warmFleet(f, state.plan); err != nil {
		return nil, err
	}

	w := &window{setup: setup}
	w.recs, w.before, w.after = runMixWindow(f, state, seed, win)
	if state.err != nil {
		return nil, state.err
	}
	w.versions = state.versions
	return endToEndMetrics(w), nil
}

// warmFleet asks every hot-set pair once before the window, so the hot set
// is cached when the window starts. A pair the agent gives up on is never
// cached and would recompute on every repeat, so it is redrawn with the
// next seed from the plan's stream.
func warmFleet(f *fleetSUT, plan *mixPlan) error {
	cli := client.New(f.router.Addr())
	for i := range plan.hot {
		h := &plan.hot[i]
		for try := 0; ; try++ {
			res, err := cli.Ask(f.shards[h.ens], service.AskRequest{Question: h.q.Text, Seed: h.seed})
			if err != nil {
				return fmt.Errorf("warm hot pair %s: %w", h.q.ID, err)
			}
			if res.Error == "" {
				break
			}
			if !isGiveUp(res.Error) || try == 20 {
				return fmt.Errorf("warm hot pair %s: %s", h.q.ID, res.Error)
			}
			h.seed = freshSeed(plan.rng)
		}
	}
	return nil
}

// traceServeMix is the traced run of serve-mix.
func traceServeMix(seed int64, dirs []string, state *mixState, win time.Duration) (*result, error) {
	tr := &tracer{}
	root := filepath.Join(runDir, "fleet-trace")
	f, err := startFleet(root, dirs, tr.newModel)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := warmFleet(f, state.plan); err != nil {
		return nil, err
	}
	shardIdx := map[string]int{}
	for i, s := range f.shards {
		shardIdx[s] = i
	}
	in := layerInputs{
		workload: "serve-mix",
		seed:     seed,
		tracer:   tr,
		askLoop: func(win time.Duration) ([]*askRec, usage, usage) {
			return runMixWindow(f, state, seed, win)
		},
		routerReg: f.routerMetrics,
		sessionDirs: func() map[sessionKey]string {
			shards := filepath.Join(root, "shards")
			return findSessions(shards, func(path string) int {
				rel, err := filepath.Rel(shards, path)
				if err != nil {
					return -1
				}
				name, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
				if i, ok := shardIdx[name]; ok {
					return i
				}
				return -1
			})
		},
		ensDirs: dirs,
		rewrites: func() int {
			state.mu.Lock()
			defer state.mu.Unlock()
			return state.rewrites
		},
		versions: state.versions,
	}
	for _, n := range f.nodes {
		in.stages = append(in.stages, n.st)
		in.regs = append(in.regs, n.metrics)
	}
	res, err := runTraced(in, win)
	if err == nil && state.err != nil {
		err = state.err
	}
	return res, err
}
