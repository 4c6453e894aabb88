package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"infera/internal/hacc"
	"infera/internal/service"
)

// selfTest is the benchmark's smoke mode. It checks that a short run of
// each kind prints every declared metric with its unit and a finite
// value, that an injected wrong or stale answer is counted as failed,
// and that changing the seed changes the ask stream but not the metric
// set.
func selfTest() error {
	if err := selfTestStreams(); err != nil {
		return err
	}
	var sets [][]string
	for _, seed := range []int64{1, 2} {
		for _, trace := range []bool{false, true} {
			res, err := runIsolated(func() (*result, error) {
				return runBank(bankSmall, seed, 3*time.Second, trace)
			})
			if err != nil {
				return fmt.Errorf("bank-small seed %d trace %v: %w", seed, trace, err)
			}
			if err := checkMetrics(res, trace); err != nil {
				return fmt.Errorf("bank-small seed %d trace %v: %w", seed, trace, err)
			}
			if !trace {
				sets = append(sets, metricNames(res))
			}
		}
	}
	if !reflect.DeepEqual(sets[0], sets[1]) {
		return fmt.Errorf("metric set depends on the seed: %v vs %v", sets[0], sets[1])
	}
	return selfTestInjected()
}

func metricNames(res *result) []string {
	var out []string
	for n := range res.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// selfTestStreams checks that the seed drives the ask streams.
func selfTestStreams() error {
	a, b := newBankStream(1), newBankStream(2)
	same := true
	for i := 0; i < 20; i++ {
		_, ra := a.next()
		_, rb := b.next()
		if ra.Seed != rb.Seed {
			same = false
		}
	}
	if same {
		return fmt.Errorf("seeds 1 and 2 gave the same bank ask stream")
	}
	if reflect.DeepEqual(newMixPlan(1).hot, newMixPlan(2).hot) {
		return fmt.Errorf("seeds 1 and 2 gave the same serve-mix hot set")
	}
	return nil
}

// selfTestInjected feeds endToEndMetrics a window with one correct, one
// wrong and one stale answer, and checks that exactly the last two count
// as failed.
func selfTestInjected() error {
	var res *result
	_, err := runIsolated(func() (*result, error) {
		ensDir, err := cachedEnsemble(bankSmall.halos, 1)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(runDir, "ensemble")
		if err := copyTree(ensDir, dir); err != nil {
			return nil, err
		}
		before, err := NewOracle(dir)
		if err != nil {
			return nil, err
		}
		right, err := answerCSV(before, "q05", 1)
		if err != nil {
			return nil, err
		}
		wrong, err := answerCSV(before, "q05", 1.01)
		if err != nil {
			return nil, err
		}
		if err := rewriteStep(dir, 624, 1.5); err != nil {
			return nil, err
		}
		after, err := NewOracle(dir)
		if err != nil {
			return nil, err
		}
		now := time.Now()
		ask := func(answer string) *askRec {
			return &askRec{qid: "q05", start: now, end: now.Add(time.Millisecond),
				res: &service.AskResult{AnswerCSV: answer}}
		}
		freshAfter, err := answerCSV(after, "q05", 1)
		if err != nil {
			return nil, err
		}
		w := &window{
			setup:    []time.Duration{time.Millisecond},
			recs:     []*askRec{ask(freshAfter), ask(wrong), ask(right)},
			before:   usage{at: now},
			after:    usage{at: now.Add(time.Second)},
			versions: map[int][]version{0: {{oracle: before}, {ready: now.Add(-time.Minute), oracle: after}}},
		}
		res = endToEndMetrics(w)
		return res, nil
	})
	if err != nil {
		return err
	}
	if res.Failed != 2 || res.Correct {
		return fmt.Errorf("injected wrong and stale answers: failed=%d correct=%v, want failed=2 correct=false", res.Failed, res.Correct)
	}
	return nil
}

// rewriteStep rewrites every haloproperties file of step.
func rewriteStep(dir string, step int, factor float64) error {
	cat, err := hacc.Load(dir)
	if err != nil {
		return err
	}
	for _, f := range cat.FilesOf(-1, step, hacc.FileHalos) {
		if err := rewriteHalos(cat.AbsPath(f), factor); err != nil {
			return err
		}
	}
	return nil
}

// answerCSV renders the oracle's expected answer to id, its values
// scaled by scale, as the CSV an ask returns.
func answerCSV(o Oracle, id string, scale float64) (string, error) {
	e := o[id]
	if e == nil || len(e.rows) == 0 {
		return "", fmt.Errorf("oracle has no rows for %s", id)
	}
	var keys []string
	for k := range e.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("%s,%s\n", e.keys[0], e.values[0])
	for _, k := range keys {
		out += fmt.Sprintf("%s,%.17g\n", k, scale*e.rows[k][0])
	}
	return out, nil
}
