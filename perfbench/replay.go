package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"infera/internal/client"
	"infera/internal/dataframe"
	"infera/internal/fleet"
	"infera/internal/gio"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/service"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/telemetry"
	"infera/internal/tools"
)

// maxCorpus bounds the asks the replays run over, so replay time stays a
// few seconds at every scale.
const maxCorpus = 16

// maxScriptReplays bounds the scripts the sandbox replay runs, picked
// evenly over the corpus: at 5000 halos per run one script took up to
// half a second.
const maxScriptReplays = 8

// corpusAsk is the replay input of one traced uncached ask: the question,
// what the model emitted, and the ask's provenance trail.
type corpusAsk struct {
	question string
	plan     *llm.Plan
	sql      []string
	scripts  []string
	session  *provenance.Session
}

// buildCorpus pairs the traced window's uncached asks with their model
// captures and provenance sessions, keeping at most maxCorpus spread
// evenly over the window.
func buildCorpus(recs []*askRec, caps map[int64][]*capture, sessions map[sessionKey]string) ([]*corpusAsk, error) {
	var all []*corpusAsk
	for _, r := range recs {
		if r.err != nil || r.res == nil || r.res.Cached {
			continue
		}
		c := captureOf(r, caps[r.res.Seed])
		if c == nil {
			continue
		}
		ca := &corpusAsk{question: r.res.Question, plan: c.plan, sql: c.sql, scripts: c.scripts}
		if dir, ok := sessions[sessionKey{r.ens, r.res.SessionID}]; ok {
			s, err := (&provenance.Store{Root: filepath.Dir(dir)}).OpenSession(filepath.Base(dir))
			if err != nil {
				return nil, fmt.Errorf("open session %s: %w", dir, err)
			}
			ca.session = s
		}
		all = append(all, ca)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no traced ask was captured")
	}
	if len(all) <= maxCorpus {
		return all, nil
	}
	out := make([]*corpusAsk, 0, maxCorpus)
	for i := 0; i < maxCorpus; i++ {
		out = append(out, all[i*len(all)/maxCorpus])
	}
	return out, nil
}

// captureOf finds the capture whose model calls ran inside r.
func captureOf(r *askRec, caps []*capture) *capture {
	for _, c := range caps {
		c.mu.Lock()
		inside := len(c.calls) > 0 && !c.calls[0].Start.Before(r.start) && !c.calls[0].End.After(r.end)
		c.mu.Unlock()
		if inside {
			return c
		}
	}
	return nil
}

// findSessions maps every provenance session directory under root to its
// ensemble index; shardOf names the ensemble a path belongs to.
func findSessions(root string, shardOf func(path string) int) map[sessionKey]string {
	out := map[sessionKey]string{}
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return nil
		}
		if filepath.Base(filepath.Dir(path)) == "sessions" {
			out[sessionKey{shardOf(path), filepath.Base(path)}] = path
			return filepath.SkipDir
		}
		return nil
	})
	return out
}

// timed runs fn and returns a span for it.
func timed(name string, fn func() error) (span, error) {
	s := span{Trace: "replay", Name: name, Start: time.Now()}
	err := fn()
	s.End = time.Now()
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return s, err
}

// replayLayers runs every per-layer replay and fills m.
func replayLayers(in layerInputs, corpus []*corpusAsk, m map[string]float64) ([]span, error) {
	cat, err := hacc.Load(in.ensDirs[0])
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"replay.rag", func() error { return replayRAG(corpus, m) }},
		{"replay.gio", func() error { return replayGio(cat, m) }},
		{"replay.stage", func() error { return replayStage(cat, m) }},
		{"replay.sqldb", func() error { return replaySQL(cat, corpus, m) }},
		{"replay.sandbox", func() error { return replaySandbox(cat, corpus, m) }},
		{"replay.provenance", func() error { return replayProvenance(corpus, m) }},
		{"replay.service", func() error { return replayHits(in.ensDirs[0], m) }},
	}
	var spans []span
	for _, st := range steps {
		s, err := timed(st.name, st.fn)
		if err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayRAG times Retriever.Retrieve on the captured retrieval triples
// (question, dataloader task, plan) and the index build.
func replayRAG(corpus []*corpusAsk, m map[string]float64) error {
	var builds []time.Duration
	var retr *rag.Retriever
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		retr = rag.NewRetriever(rag.BuildHACCIndex())
		builds = append(builds, time.Since(t0))
	}
	m["rag.index_build_ms"] = ms(medianDur(builds))

	type triple struct{ q, task, plan string }
	var triples []triple
	for _, c := range corpus {
		if c.plan == nil {
			continue
		}
		for _, s := range c.plan.Steps {
			if s.Agent == llm.AgentData {
				triples = append(triples, triple{c.question, s.Task, c.plan.String()})
			}
		}
	}
	if len(triples) == 0 {
		return fmt.Errorf("no retrieval triples captured")
	}
	m["rag.calls_per_ask"] = float64(len(triples)) / float64(len(corpus))
	var times []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const reps = 3
	for r := 0; r < reps; r++ {
		for _, t := range triples {
			t0 := time.Now()
			retr.Retrieve(t.q, t.task, t.plan)
			times = append(times, time.Since(t0))
		}
	}
	runtime.ReadMemStats(&ms1)
	m["rag.retrieve_us"] = us(medianDur(times))
	m["rag.retrieve_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(times))
	return nil
}

// snapshotFiles lists the catalog's halo and galaxy files.
func snapshotFiles(cat *hacc.Catalog, types ...string) []string {
	var out []string
	for _, f := range cat.Files {
		for _, t := range types {
			if f.Type == t && f.Step >= 0 {
				out = append(out, cat.AbsPath(f))
			}
		}
	}
	return out
}

// replayGio decodes every halo and galaxy file with Reader.ReadColumns.
func replayGio(cat *hacc.Catalog, m map[string]float64) error {
	files := snapshotFiles(cat, hacc.FileHalos, hacc.FileGalaxies)
	var bytesRead int64
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < 200*time.Millisecond; pass++ {
		for _, p := range files {
			r, err := gio.Open(p)
			if err != nil {
				return err
			}
			_, err = r.ReadColumns(r.ColumnNames()...)
			bytesRead += r.BytesRead()
			r.Close()
			if err != nil {
				return err
			}
		}
	}
	m["gio.decode_mb_per_s"] = float64(bytesRead) / (1 << 20) / time.Since(start).Seconds()
	return nil
}

// replayStage times Cache.Columns per tier over the halo files: a cold
// decode, a promotion from a disk tier written by an earlier cache, and a
// resident memory hit.
func replayStage(cat *hacc.Catalog, m map[string]float64) error {
	files := snapshotFiles(cat, hacc.FileHalos)
	cols := map[string][]string{}
	for _, p := range files {
		r, err := gio.Open(p)
		if err != nil {
			return err
		}
		cols[p] = r.ColumnNames()
		r.Close()
	}
	diskDir := filepath.Join(runDir, "replay-stage")
	load := func(c *stage.Cache) (time.Duration, error) {
		t0 := time.Now()
		for _, p := range files {
			if _, _, err := c.Columns(p, cols[p]...); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	cold := stage.New(1<<30, 1)
	if err := cold.SetDiskTier(diskDir, 0); err != nil {
		return err
	}
	d, err := load(cold)
	if err != nil {
		return err
	}
	st := cold.Stats()
	m["stage.cold_us_per_mb"] = us(d) / (float64(st.BytesDecoded) / (1 << 20))
	var hits []time.Duration
	for i := 0; i < 20; i++ {
		for _, p := range files {
			t0 := time.Now()
			if _, _, err := cold.Columns(p, cols[p]...); err != nil {
				return err
			}
			hits = append(hits, time.Since(t0))
		}
	}
	m["stage.mem_hit_us"] = us(medianDur(hits))
	cold.WaitPending()
	cold.Close()

	warm := stage.New(1<<30, 1)
	defer warm.Close()
	if err := warm.SetDiskTier(diskDir, 0); err != nil {
		return err
	}
	d, err = load(warm)
	if err != nil {
		return err
	}
	st = warm.Stats()
	if st.PromotedBytes == 0 {
		return fmt.Errorf("disk tier promoted nothing (%d disk hits)", st.DiskHits)
	}
	m["stage.promote_us_per_mb"] = us(d) / (float64(st.PromotedBytes) / (1 << 20))
	return nil
}

// checkpointState is the part of a workflow checkpoint the SQL replay
// needs: which slices the ask staged, into which tables.
type checkpointState struct {
	LoadedSims  []int               `json:"loaded_sims"`
	LoadedSteps []int               `json:"loaded_steps"`
	Staged      map[string][]string `json:"staged"`
}

// stagedTables rebuilds the raw tables an ask staged (halos, galaxies)
// from the gio files, with the loader's sim/step and parameter columns,
// as frames per (sim, step) slice.
func stagedTables(cat *hacc.Catalog, s *provenance.Session) (map[string][]*dataframe.Frame, error) {
	e, ok := s.LastCheckpoint()
	if !ok {
		return nil, nil
	}
	data, err := s.Read(e)
	if err != nil {
		return nil, err
	}
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	out := map[string][]*dataframe.Frame{}
	for table, typ := range map[string]string{"halos": hacc.FileHalos, "galaxies": hacc.FileGalaxies} {
		cols, ok := st.Staged[table]
		if !ok {
			continue
		}
		for _, sim := range st.LoadedSims {
			for _, step := range st.LoadedSteps {
				fe, ok := cat.Find(sim, step, typ)
				if !ok {
					return nil, fmt.Errorf("no %s file for sim %d step %d", typ, sim, step)
				}
				f, err := sliceFrame(cat.AbsPath(fe), cols, sim, step, cat.Runs[sim].Params)
				if err != nil {
					return nil, err
				}
				out[table] = append(out[table], f)
			}
		}
	}
	return out, nil
}

func sliceFrame(path string, cols []string, sim, step int, p hacc.Params) (*dataframe.Frame, error) {
	r, err := gio.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	params := map[string]float64{"m_seed": p.MSeed, "f_sn": p.FSN, "log_v_sn": p.LogVSN, "log_t_agn": p.LogTAGN, "beta_bh": p.BetaBH}
	var fileCols []string
	for _, c := range cols {
		if r.Has(c) {
			fileCols = append(fileCols, c)
		}
	}
	f, err := r.ReadColumns(fileCols...)
	if err != nil {
		return nil, err
	}
	n := r.NumRows()
	for _, c := range cols {
		if r.Has(c) {
			continue
		}
		switch v, isParam := params[c]; {
		case c == "sim" || c == "step":
			x := int64(sim)
			if c == "step" {
				x = int64(step)
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = x
			}
			err = f.AddColumn(dataframe.NewInt(c, vals))
		case isParam:
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = v
			}
			err = f.AddColumn(dataframe.NewFloat(c, vals))
		default:
			return nil, fmt.Errorf("staged column %q is neither in %s nor injected", c, filepath.Base(path))
		}
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// replaySQL rebuilds each corpus ask's staging database with CreateStaged
// + BulkAppend and replays the SQL the model emitted with DB.Query.
func replaySQL(cat *hacc.Catalog, corpus []*corpusAsk, m map[string]float64) error {
	var appendTime time.Duration
	var queries []time.Duration
	asks, errs, total := 0, 0, 0
	for i, c := range corpus {
		if c.session == nil {
			continue
		}
		tables, err := stagedTables(cat, c.session)
		if err != nil {
			return err
		}
		if len(tables) == 0 {
			continue
		}
		db, err := sqldb.CreateStaged(filepath.Join(runDir, fmt.Sprintf("replay-db-%d", i)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		for name, frames := range tables {
			if err := db.BulkAppend(name, frames...); err != nil {
				return err
			}
		}
		appendTime += time.Since(t0)
		asks++
		for _, q := range c.sql {
			t0 := time.Now()
			_, err := db.Query(q)
			d := time.Since(t0)
			total++
			if err != nil {
				errs++
				continue
			}
			queries = append(queries, d)
		}
	}
	if asks == 0 || len(queries) == 0 {
		return fmt.Errorf("no staged tables or successful queries to replay (%d asks, %d queries)", asks, total)
	}
	m["sqldb.append_ms_per_ask"] = ms(appendTime) / float64(asks)
	m["sqldb.query_us"] = us(medianDur(queries))
	m["sqldb.query_error_ratio"] = float64(errs) / float64(total)
	return nil
}

// workTables reads the tables a code step receives (work, work_gal and
// the previous step's analysis frame) from the ask's provenance trail,
// with their CSV sizes.
func workTables(s *provenance.Session) (map[string]*dataframe.Frame, map[string][]byte, error) {
	frames := map[string]*dataframe.Frame{}
	raw := map[string][]byte{}
	for _, e := range s.Manifest() {
		if e.Kind != "data" {
			continue
		}
		var name string
		switch e.Name {
		case "work.csv", "work_gal.csv":
			name = e.Name[:len(e.Name)-4]
		case "analysis_step.csv":
			name = "analysis"
		default:
			continue
		}
		data, err := s.Read(e)
		if err != nil {
			return nil, nil, err
		}
		f, err := dataframe.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		frames[name], raw[name] = f, data
	}
	return frames, raw, nil
}

// replaySandbox replays the emitted scripts through Executor.Exec, and
// through script parse + run on a directory staged beforehand: the
// difference is the sandbox's CSV handoff.
func replaySandbox(cat *hacc.Catalog, corpus []*corpusAsk, m map[string]float64) error {
	st := stage.New(stage.DefaultBudgetBytes, 0)
	defer st.Close()
	reg := script.DefaultRegistry()
	tools.Register(reg, cat, st)
	exec := &sandbox.Executor{Registry: reg, Limits: sandbox.DefaultLimits()}

	type job struct {
		ask  int
		code string
	}
	var jobs []job
	scripts := 0
	for i, c := range corpus {
		scripts += len(c.scripts)
		if c.session == nil {
			continue
		}
		for _, code := range c.scripts {
			jobs = append(jobs, job{i, code})
		}
	}
	if len(jobs) > maxScriptReplays {
		picked := make([]job, maxScriptReplays)
		for k := range picked {
			picked[k] = jobs[k*len(jobs)/maxScriptReplays]
		}
		jobs = picked
	}

	type staged struct {
		tables   map[string]*dataframe.Frame
		dir      string
		csvBytes int64
	}
	stagedBy := map[int]*staged{}
	var execTime, runTime time.Duration
	var handoff, fuel int64
	execs, errs := 0, 0
	for _, j := range jobs {
		sd := stagedBy[j.ask]
		if sd == nil {
			tables, raw, err := workTables(corpus[j.ask].session)
			if err != nil {
				return err
			}
			sd = &staged{tables: tables, dir: filepath.Join(runDir, fmt.Sprintf("replay-script-%d", j.ask))}
			if err := os.MkdirAll(sd.dir, 0o755); err != nil {
				return err
			}
			for name, data := range raw {
				if err := os.WriteFile(filepath.Join(sd.dir, name+".csv"), data, 0o644); err != nil {
					return err
				}
				sd.csvBytes += int64(len(data))
			}
			stagedBy[j.ask] = sd
		}
		if len(sd.tables) == 0 {
			continue
		}
		t0 := time.Now()
		res := exec.Exec(j.code, sd.tables)
		execTime += time.Since(t0)
		execs++
		handoff += sd.csvBytes
		if !res.OK {
			errs++
		}
		t0 = time.Now()
		env := script.NewEnv(reg, sd.dir)
		env.Budgets = script.Budgets{
			MaxFuel:          exec.Limits.MaxFuel,
			MaxMemBytes:      exec.Limits.MaxMemBytes,
			MaxArtifactBytes: exec.Limits.MaxArtifactBytes,
			MaxStdoutLines:   exec.Limits.MaxStdoutLines,
		}
		if prog, err := script.Parse(j.code); err == nil {
			_ = prog.Run(env) // failures are counted from the Exec result above
		}
		runTime += time.Since(t0)
		fuel += env.FuelUsed
	}
	if execs == 0 {
		return fmt.Errorf("no scripts to replay")
	}
	m["sandbox.execs_per_ask"] = float64(scripts) / float64(len(corpus))
	m["sandbox.exec_ms"] = ms(execTime) / float64(execs)
	m["script.run_ms_per_exec"] = ms(runTime) / float64(execs)
	m["sandbox.handoff_ms_per_exec"] = m["sandbox.exec_ms"] - m["script.run_ms_per_exec"]
	m["sandbox.handoff_mb_per_exec"] = float64(handoff) / (1 << 20) / float64(execs)
	m["sandbox.error_ratio"] = float64(errs) / float64(execs)
	m["script.fuel_per_exec"] = float64(fuel) / float64(execs)
	return nil
}

// replayProvenance reports the corpus sessions' trails and times
// re-recording their manifests into a fresh Store.
func replayProvenance(corpus []*corpusAsk, m map[string]float64) error {
	store, err := provenance.NewStore(filepath.Join(runDir, "replay-provenance"))
	if err != nil {
		return err
	}
	var records, files, checkpoint, size int64
	var write time.Duration
	n := 0
	for i, c := range corpus {
		if c.session == nil {
			continue
		}
		n++
		entries := c.session.Manifest()
		records += int64(len(entries))
		size += c.session.SizeBytes()
		_ = filepath.Walk(c.session.Dir(), func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				files++
			}
			return nil
		})
		data := make([][]byte, len(entries))
		for j, e := range entries {
			if data[j], err = c.session.Read(e); err != nil {
				return err
			}
			if e.Kind == "checkpoint" {
				checkpoint += e.Bytes
			}
		}
		t0 := time.Now()
		dst, err := store.NewSession(fmt.Sprintf("replay-%d", i))
		if err != nil {
			return err
		}
		for j, e := range entries {
			if _, err := dst.Record(e.Agent, e.Kind, e.Name, data[j]); err != nil {
				return err
			}
		}
		write += time.Since(t0)
	}
	if n == 0 {
		return fmt.Errorf("no provenance sessions found")
	}
	m["provenance.records_per_ask"] = float64(records) / float64(n)
	m["provenance.files_per_ask"] = float64(files) / float64(n)
	m["provenance.bytes_per_ask"] = float64(size) / float64(n)
	m["provenance.checkpoint_kb_per_ask"] = float64(checkpoint) / 1024 / float64(n)
	m["provenance.write_ms_per_ask"] = ms(write) / float64(n)
	return nil
}

// replayHits times one answer-cache hit three ways on a one-node fleet
// over ensDir (in process, HTTP to the node, HTTP through the router),
// and the fingerprint memo a hit consults.
func replayHits(ensDir string, m map[string]float64) error {
	st := stage.New(stage.DefaultBudgetBytes, 0)
	defer st.Close()
	reg := service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{NewModel: defaultModel, ScriptLimits: sandbox.DefaultLimits(), Stage: st, Metrics: telemetry.NewRegistry()},
		WorkDir:  filepath.Join(runDir, "replay-hits"),
		NodeID:   "replay",
	})
	defer reg.Close()
	srv := service.NewServer(reg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	router := fleet.New(fleet.Config{Nodes: []string{"replay=http://" + srv.Addr()}, Metrics: telemetry.NewRegistry()})
	if err := router.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer router.Close()
	abs, err := filepath.Abs(ensDir)
	if err != nil {
		return err
	}
	routed := client.New(router.Addr())
	if err := routed.WaitReady(10 * time.Second); err != nil {
		return err
	}
	if _, err := routed.Register("replay", abs); err != nil {
		return err
	}
	direct := client.New(srv.Addr())
	req := service.AskRequest{Question: "What is the average gas mass (sod_halo_MGas500c) of halos at timestep 498 in simulation 0?", Seed: 7}
	if _, err := routed.Ask("replay", req); err != nil {
		return err
	}
	var inproc, viaHTTP, viaRouter []time.Duration
	for i := 0; i < 300; i++ {
		for _, way := range []struct {
			out *[]time.Duration
			ask func() (*service.AskResult, error)
		}{
			{&inproc, func() (*service.AskResult, error) { return reg.Ask("replay", req) }},
			{&viaHTTP, func() (*service.AskResult, error) { return direct.Ask("replay", req) }},
			{&viaRouter, func() (*service.AskResult, error) { return routed.Ask("replay", req) }},
		} {
			t0 := time.Now()
			res, err := way.ask()
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if !res.Cached {
				return fmt.Errorf("replayed hit missed the answer cache")
			}
			*way.out = append(*way.out, d)
		}
	}
	in, h, r := medianDur(inproc), medianDur(viaHTTP), medianDur(viaRouter)
	m["service.hit_us"] = us(in)
	m["http.hit_overhead_us"] = us(h - in)
	m["fleet.forward_overhead_us"] = us(r - h)

	var fps []time.Duration
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := service.CachedFingerprint(abs, service.DefaultFingerprintTTL); err != nil {
			return err
		}
		fps = append(fps, time.Since(t0))
	}
	m["service.fingerprint_us"] = us(medianDur(fps))
	return nil
}
