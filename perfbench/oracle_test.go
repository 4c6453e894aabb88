package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/hacc"
	"infera/internal/service"
)

// tinyHalos is a hand-checked ensemble: two sims, steps 498 and 624, a
// few halos each. The expected answers below are worked out by hand.
var tinyHalos = map[[2]int]struct {
	tags   []int64
	counts []int64
	mass   []float64
	vel    []float64
	gas    []float64
}{
	{0, 498}: {[]int64{0, 1, 2}, []int64{100, 600, 50}, []float64{1e12, 6e12, 5e11}, []float64{100, 200, 300}, []float64{1e11, 2e11, 3e11}},
	{0, 624}: {[]int64{0, 1, 2}, []int64{700, 800, 40}, []float64{7e12, 8e12, 4e11}, []float64{110, 210, 310}, []float64{1e11, 1e11, 1e11}},
	{1, 498}: {[]int64{1000000, 1000001}, []int64{300, 20}, []float64{3e12, 2e11}, []float64{50, 70}, []float64{5e10, 5e10}},
	{1, 624}: {[]int64{1000000, 1000001, 1000002}, []int64{501, 500, 900}, []float64{5e12, 5e12, 9e12}, []float64{60, 80, 90}, []float64{1e10, 1e10, 1e10}},
}

// writeTinyEnsemble writes tinyHalos as gio files plus a catalog.
func writeTinyEnsemble(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cat := hacc.Catalog{Spec: hacc.Spec{Runs: 2, Steps: []int{498, 624}}}
	for run := 0; run < 2; run++ {
		cat.Runs = append(cat.Runs, hacc.RunInfo{Index: run})
		for _, step := range []int{498, 624} {
			h := tinyHalos[[2]int{run, step}]
			f := dataframe.MustFromColumns(
				dataframe.NewInt("fof_halo_tag", h.tags),
				dataframe.NewInt("fof_halo_count", h.counts),
				dataframe.NewFloat("fof_halo_mass", h.mass),
				dataframe.NewFloat("fof_halo_vel_disp", h.vel),
				dataframe.NewFloat("sod_halo_MGas500c", h.gas),
			)
			rel := fmt.Sprintf("sim_%02d/halos-%d.gio", run, step)
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := gio.WriteFile(filepath.Join(dir, rel), f, nil); err != nil {
				t.Fatal(err)
			}
			cat.Files = append(cat.Files, hacc.FileEntry{Run: run, Step: step, Type: hacc.FileHalos, Path: rel, Rows: len(h.tags)})
		}
	}
	data, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ensemble.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOracleTinyEnsemble(t *testing.T) {
	o, err := NewOracle(writeTinyEnsemble(t))
	if err != nil {
		t.Fatal(err)
	}
	right := map[string]string{
		// (100+600+50+300+20)/5 and (700+800+40+501+500+900)/6.
		"q01": "step,avg_fof_halo_count\n498,214\n624,573.5\n",
		"q02": "sim,avg_sod_halo_MGas500c\n0,2e+11\n",
		// 501 and 900 are above 500; 500 is not.
		"q03": "sim,count_fof_halo_count\n1,2\n",
		"q05": "sim,sum_fof_halo_mass\n0,1.54e13\n1,1.9e13\n",
		"q06": "step,avg_fof_halo_vel_disp\n624,210\n498,200\n",
		"q08": "sim,step,max_count,max_mass\n0,498,600,6e12\n0,624,800,8e12\n1,498,300,3e12\n1,624,900,9e12\n",
		// Extra columns are allowed; the top two tags by count are 1 and 0.
		"q14": "fof_halo_tag,mean_stellar\n1,5\n0,7\n",
	}
	for id, csv := range right {
		if err := o.Check(id, csv); err != nil {
			t.Errorf("%s: correct answer rejected: %v", id, err)
		}
	}
	wrong := map[string]string{
		"q01": "step,avg_fof_halo_count\n498,214\n624,573.6\n",                 // value off
		"q02": "sim,avg_sod_halo_MGas500c\n1,2e+11\n",                          // wrong sim
		"q03": "sim,count_fof_halo_count\n1,3\n",                               // counted >= 500
		"q05": "sim,sum_fof_halo_mass\n0,1.54e13\n",                            // missing sim
		"q06": "step,avg_fof_halo_vel\n498,200\n624,210\n",                     // wrong column
		"q08": "sim,step,max_count,max_mass\n0,498,600,6e12\n0,498,600,6e12\n", // duplicate key
		"q14": "fof_halo_tag\n1\n2\n",                                          // tag 2 is not top-2
	}
	for id, csv := range wrong {
		if err := o.Check(id, csv); err == nil {
			t.Errorf("%s: wrong answer accepted: %q", id, csv)
		}
	}
	if err := o.Check("q09", "anything"); err != nil {
		t.Errorf("unchecked question: %v", err)
	}
}

func TestJudgeStaleAfterRewrite(t *testing.T) {
	dir := writeTinyEnsemble(t)
	before, err := NewOracle(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	fe, _ := cat.Find(0, 498, hacc.FileHalos)
	if err := rewriteHalos(cat.AbsPath(fe), 2); err != nil {
		t.Fatal(err)
	}
	after, err := NewOracle(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := "sim,avg_sod_halo_MGas500c\n0,2e+11\n"
	fresh := "sim,avg_sod_halo_MGas500c\n0,4e+11\n"
	now := time.Now()
	rec := func(answer string, start time.Time) *askRec {
		return &askRec{qid: "q02", start: start, end: start.Add(time.Millisecond), res: &service.AskResult{AnswerCSV: answer}}
	}
	// The rewrite finished long before the ask began: old data is stale.
	versions := []version{{oracle: before}, {ready: now.Add(-time.Hour), oracle: after}}
	if err := judge(rec(old, now), versions); !errors.Is(err, errStale) {
		t.Errorf("old answer after the TTL: got %v, want a stale error", err)
	}
	if err := judge(rec(fresh, now), versions); err != nil {
		t.Errorf("fresh answer rejected: %v", err)
	}
	// Within the fingerprint TTL of the rewrite either state is accepted.
	versions[1].ready = now
	if err := judge(rec(old, now), versions); err != nil {
		t.Errorf("old answer inside the TTL rejected: %v", err)
	}
	// Before the rewrite finished only the old state is right.
	versions[1].ready = now.Add(time.Hour)
	if err := judge(rec(fresh, now), versions); err == nil {
		t.Errorf("answer from data not yet written was accepted")
	}
}
