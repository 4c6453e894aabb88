package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"infera/internal/gio"
	"infera/internal/hacc"
)

// relTol is the float tolerance of an oracle comparison: answers are
// computed by other code paths (vectorized SQL, sandboxed scripts) whose
// summation order differs from the oracle's, so exact equality would flag
// rounding, not wrong answers.
const relTol = 1e-6

// expect is the answer one bank question must produce: the frame's key
// columns, its value columns, and per key tuple the expected values. An
// expect with no value columns checks the key set only (top-N by tag).
type expect struct {
	keys   []string
	values []string
	rows   map[string][]float64
	// topN, when positive, relaxes the key-set check for ranked answers:
	// any N distinct keys whose rank value reaches the N-th largest pass,
	// so ties at the cut do not flag a correct answer.
	topN   int
	rankOf map[string]float64
	cutoff float64
}

// Oracle holds the expected answers of the checkable bank questions for
// one ensemble state. It reads the gio files directly and never goes
// through stage, sqldb or agent, so it is independent of the code under
// test.
type Oracle map[string]*expect

// haloCols are the haloproperties columns the checkable questions use.
var haloCols = []string{"fof_halo_tag", "fof_halo_count", "fof_halo_mass", "fof_halo_vel_disp", "sod_halo_MGas500c"}

// haloTable is one haloproperties file's columns, as float64.
type haloTable map[string][]float64

// readHalos reads every haloproperties file of the ensemble at dir, keyed
// by (run, step).
func readHalos(dir string) (map[[2]int]haloTable, []int, int, error) {
	cat, err := hacc.Load(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	out := map[[2]int]haloTable{}
	for _, f := range cat.Files {
		if f.Type != hacc.FileHalos || f.Step < 0 {
			continue
		}
		t, err := readHaloFile(cat.AbsPath(f))
		if err != nil {
			return nil, nil, 0, err
		}
		out[[2]int{f.Run, f.Step}] = t
	}
	return out, cat.Steps(), cat.NumRuns(), nil
}

func readHaloFile(path string) (haloTable, error) {
	r, err := gio.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	fr, err := r.ReadColumns(haloCols...)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", filepath.Base(path), err)
	}
	t := haloTable{}
	for _, name := range haloCols {
		t[name] = fr.MustColumn(name).Floats()
	}
	return t, nil
}

// NewOracle computes the expected answers for the ensemble at dir:
// mean per step (q01, q06), a single mean (q02), count above a threshold
// (q03), sum per sim (q05), the per-(sim, step) maximum (q08) and the
// top-2 halo tags (q14).
func NewOracle(dir string) (Oracle, error) {
	halos, steps, runs, err := readHalos(dir)
	if err != nil {
		return nil, err
	}
	get := func(run, step int) (haloTable, error) {
		t, ok := halos[[2]int{run, step}]
		if !ok {
			return nil, fmt.Errorf("oracle: no haloproperties file for run %d step %d", run, step)
		}
		return t, nil
	}
	o := Oracle{}

	// q01: mean fof_halo_count per step over every halo of every sim.
	q01 := &expect{keys: []string{"step"}, values: []string{"avg_fof_halo_count"}, rows: map[string][]float64{}}
	for _, s := range steps {
		var sum, n float64
		for run := 0; run < runs; run++ {
			t, err := get(run, s)
			if err != nil {
				return nil, err
			}
			for _, v := range t["fof_halo_count"] {
				sum += v
				n++
			}
		}
		q01.rows[key(s)] = []float64{sum / n}
	}
	o["q01"] = q01

	// q06: mean fof_halo_vel_disp per step in sim 0.
	q06 := &expect{keys: []string{"step"}, values: []string{"avg_fof_halo_vel_disp"}, rows: map[string][]float64{}}
	for _, s := range steps {
		t, err := get(0, s)
		if err != nil {
			return nil, err
		}
		q06.rows[key(s)] = []float64{mean(t["fof_halo_vel_disp"])}
	}
	o["q06"] = q06

	t0498, err := get(0, 498)
	if err != nil {
		return nil, err
	}
	o["q02"] = &expect{keys: []string{"sim"}, values: []string{"avg_sod_halo_MGas500c"},
		rows: map[string][]float64{key(0): {mean(t0498["sod_halo_MGas500c"])}}}

	t1624, err := get(1, 624)
	if err != nil {
		return nil, err
	}
	var above float64
	for _, v := range t1624["fof_halo_count"] {
		if v > 500 {
			above++
		}
	}
	o["q03"] = &expect{keys: []string{"sim"}, values: []string{"count_fof_halo_count"},
		rows: map[string][]float64{key(1): {above}}}

	// q05: sum of fof_halo_mass per sim at step 624.
	q05 := &expect{keys: []string{"sim"}, values: []string{"sum_fof_halo_mass"}, rows: map[string][]float64{}}
	for run := 0; run < runs; run++ {
		t, err := get(run, 624)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, v := range t["fof_halo_mass"] {
			sum += v
		}
		q05.rows[key(run)] = []float64{sum}
	}
	o["q05"] = q05

	// q08: the largest halo's count and mass per (sim, step).
	q08 := &expect{keys: []string{"sim", "step"}, values: []string{"max_count", "max_mass"}, rows: map[string][]float64{}}
	for run := 0; run < runs; run++ {
		for _, s := range steps {
			t, err := get(run, s)
			if err != nil {
				return nil, err
			}
			q08.rows[key(run, s)] = []float64{maxOf(t["fof_halo_count"]), maxOf(t["fof_halo_mass"])}
		}
	}
	o["q08"] = q08

	// q14: the two largest halos by fof_halo_count at 624 in sim 0.
	t0624, err := get(0, 624)
	if err != nil {
		return nil, err
	}
	o["q14"] = topN(t0624["fof_halo_tag"], t0624["fof_halo_count"], 2)
	return o, nil
}

// topN expects the n tags ranked highest by rank.
func topN(tags, rank []float64, n int) *expect {
	e := &expect{keys: []string{"fof_halo_tag"}, topN: n, rankOf: map[string]float64{}}
	sorted := append([]float64(nil), rank...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if len(sorted) >= n {
		e.cutoff = sorted[n-1]
	}
	for i, tg := range tags {
		e.rankOf[key(int(tg))] = rank[i]
	}
	return e
}

func key(parts ...int) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = strconv.Itoa(p)
	}
	return strings.Join(s, "|")
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// Checkable reports whether the oracle has an expected answer for the
// bank question id.
func (o Oracle) Checkable(id string) bool { return o[id] != nil }

// Check compares one answer CSV with the expected answer of question id.
// It returns nil for questions the oracle does not cover.
func (o Oracle) Check(id, answerCSV string) error {
	e := o[id]
	if e == nil {
		return nil
	}
	recs, err := csv.NewReader(strings.NewReader(answerCSV)).ReadAll()
	if err != nil {
		return fmt.Errorf("%s: answer is not CSV: %w", id, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: empty answer", id)
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	idx := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			j, ok := col[n]
			if !ok {
				return nil, fmt.Errorf("%s: answer lacks column %q (has %v)", id, n, recs[0])
			}
			out[i] = j
		}
		return out, nil
	}
	ki, err := idx(e.keys)
	if err != nil {
		return err
	}
	vi, err := idx(e.values)
	if err != nil {
		return err
	}
	rows := recs[1:]
	want := len(e.rows)
	if e.topN > 0 {
		want = e.topN
	}
	if len(rows) != want {
		return fmt.Errorf("%s: answer has %d rows, want %d", id, len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		parts := make([]int, len(ki))
		for i, j := range ki {
			f, err := strconv.ParseFloat(r[j], 64)
			if err != nil || f != math.Trunc(f) {
				return fmt.Errorf("%s: key %s=%q is not an integer", id, e.keys[i], r[j])
			}
			parts[i] = int(f)
		}
		k := key(parts...)
		if seen[k] {
			return fmt.Errorf("%s: duplicate key %s", id, k)
		}
		seen[k] = true
		if e.topN > 0 {
			if rv, ok := e.rankOf[k]; !ok || rv < e.cutoff {
				return fmt.Errorf("%s: %s is not among the top %d", id, k, e.topN)
			}
			continue
		}
		exp, ok := e.rows[k]
		if !ok {
			return fmt.Errorf("%s: unexpected key %s", id, k)
		}
		for i, j := range vi {
			got, err := strconv.ParseFloat(r[j], 64)
			if err != nil {
				return fmt.Errorf("%s: %s=%q is not a number", id, e.values[i], r[j])
			}
			if !near(got, exp[i]) {
				return fmt.Errorf("%s: key %s: %s = %g, oracle says %g", id, k, e.values[i], got, exp[i])
			}
		}
	}
	return nil
}
