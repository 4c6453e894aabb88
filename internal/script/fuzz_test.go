package script

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzBudgets bounds fuzzed executions so a generated loop of huge list
// literals finishes in microseconds instead of minutes. No wall deadline:
// wall-clock overruns depend on timing and would make two runs of one
// script diverge.
func fuzzBudgets() Budgets {
	return Budgets{
		MaxFuel:          100_000,
		MaxMemBytes:      1 << 26, // 64 MiB
		MaxArtifactBytes: 1 << 20, // 1 MiB
		MaxStdoutLines:   64,
	}
}

// resetWorkDir empties dir and seeds it with one small CSV so load_table
// has something real to read. Each run starts from the same path and the
// same contents: file errors quote the path, and a file the script wrote
// in an earlier run must not be there to read.
func resetWorkDir(tb testing.TB, dir string) {
	tb.Helper()
	if err := os.RemoveAll(dir); err != nil {
		tb.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	csv := "x,y,name\n1,10.5,a\n2,-3,b\n3,0,c\n4,7.25,d\n"
	if err := os.WriteFile(filepath.Join(dir, "work.csv"), []byte(csv), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// runTwice executes src twice, each time on a fresh environment with the
// same budgets over a freshly reset workdir, and returns both envs and
// errors.
func runTwice(tb testing.TB, src string) (envA, envB *Env, errA, errB error) {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "work")
	run := func() (*Env, error) {
		resetWorkDir(tb, dir)
		env := NewEnv(DefaultRegistry(), dir)
		env.Budgets = fuzzBudgets()
		prog, err := Parse(src)
		if err != nil {
			return env, err
		}
		return env, prog.Run(env)
	}
	envA, errA = run()
	envB, errB = run()
	return envA, envB, errA, errB
}

// valuesEqual compares two script values structurally (frames by cell).
func valuesEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFrame:
		if (a.Frame == nil) != (b.Frame == nil) {
			return false
		}
		return a.Frame == nil || a.Frame.String() == b.Frame.String()
	case KindNum:
		// NaN-safe: compare the rendered form.
		return a.String() == b.String()
	case KindStr:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	case KindList:
		if len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !valuesEqual(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// assertSameRun fails the test if two executions of src diverged in any
// observable way: error text, fuel, variables, result frame, artifacts or
// stdout. The reproducibility audit replays scripts and relies on this.
func assertSameRun(t *testing.T, src string, a, b *Env, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error divergence on %q:\n  run 1: %v\n  run 2: %v", src, errA, errB)
	}
	if errA != nil && errA.Error() != errB.Error() {
		t.Fatalf("error text divergence on %q:\n  run 1: %v\n  run 2: %v", src, errA, errB)
	}
	if a.FuelUsed != b.FuelUsed {
		t.Fatalf("fuel divergence on %q: %d vs %d", src, a.FuelUsed, b.FuelUsed)
	}
	if len(a.Vars) != len(b.Vars) {
		t.Fatalf("var count divergence on %q: %d vs %d", src, len(a.Vars), len(b.Vars))
	}
	for name, av := range a.Vars {
		bv, ok := b.Vars[name]
		if !ok || !valuesEqual(av, bv) {
			t.Fatalf("var %q divergence on %q:\n  run 1: %v\n  run 2: %v", name, src, av, bv)
		}
	}
	if (a.Result == nil) != (b.Result == nil) {
		t.Fatalf("result divergence on %q", src)
	}
	if a.Result != nil && a.Result.String() != b.Result.String() {
		t.Fatalf("result frame divergence on %q:\n%v\nvs\n%v", src, a.Result, b.Result)
	}
	if len(a.Stdout) != len(b.Stdout) {
		t.Fatalf("stdout divergence on %q: %v vs %v", src, a.Stdout, b.Stdout)
	}
	for i := range a.Stdout {
		if a.Stdout[i] != b.Stdout[i] {
			t.Fatalf("stdout line %d divergence on %q: %q vs %q", i, src, a.Stdout[i], b.Stdout[i])
		}
	}
	if len(a.Artifacts) != len(b.Artifacts) {
		t.Fatalf("artifact count divergence on %q", src)
	}
	for name, ad := range a.Artifacts {
		bd, ok := b.Artifacts[name]
		if !ok || string(ad) != string(bd) {
			t.Fatalf("artifact %q divergence on %q", name, src)
		}
	}
}

var fuzzScriptSeeds = []string{
	`w = load_table("work")` + "\n" + `top = head(sort(w, "x", true), 2)` + "\n" + `result(top)`,
	`w = load_table("work")` + "\n" + `f = filter_gt(w, "y", 0)` + "\n" + `save_csv(f, "out.csv")` + "\n" + `result(f)`,
	`print("hello", 1, true, [1, 2, "x"])`,
	`x = [1, [2, [3, [4]]], "deep"]` + "\n" + `print(x)`,
	`w = load_table("work")` + "\n" + `s = scatter_plot(w, "x", "y", "t", "p.svg")`,
	`mean([1, 2, 3, 4])`,
	`result(head(load_table("work"), 1))`,
	`x = undefined_variable`,
	`nosuchfn(1, 2)`,
	`x = [` + "\n",
	`x = ((((((1))))))`,
	`# comment only`,
	``,
	`x = -1.5e300` + "\n" + `y = [x, x, x]`,
	`"bare string"`,
	`w = load_table("missing_table")`,
}

// FuzzScriptParse asserts the parser never panics and depth-bounds its
// recursion on arbitrary input.
func FuzzScriptParse(f *testing.F) {
	for _, s := range fuzzScriptSeeds {
		f.Add(s)
	}
	// The known crasher class: unbounded expression nesting.
	deep := ""
	for i := 0; i < 500; i++ {
		deep += "["
	}
	f.Add("x = " + deep)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil && prog == nil {
			t.Fatal("nil program without error")
		}
	})
}

// FuzzScriptRun executes arbitrary programs twice under a budget and
// asserts no panic plus identical observable results. The seeds are
// fuzzScriptSeeds followed by scriptCorpus, so plain go test replays both.
func FuzzScriptRun(f *testing.F) {
	for _, s := range fuzzScriptSeeds {
		f.Add(s)
	}
	for _, s := range scriptCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // budgeted elsewhere; keep per-input cost bounded
		}
		a, b, errA, errB := runTwice(t, src)
		assertSameRun(t, src, a, b, errA, errB)
	})
}

// scriptCorpus builds the FuzzScriptRun seed corpus: ~200 statements
// across success paths (every dataframe verb, stats, plotting, printing,
// list literals), error paths (NameError, TypeError, KeyError, parse
// errors) and budget-sensitive shapes. Each entry is one script; two runs
// of it must produce identical values, errors, artifacts, stdout and fuel.
func scriptCorpus() []string {
	var corpus []string
	add := func(lines ...string) { corpus = append(corpus, strings.Join(lines, "\n")) }

	// Literals, lists, variables, printing.
	add(`x = 1`, `y = 2.5`, `z = "s"`, `b = true`, `l = [x, y, z, b]`, `print(l)`)
	add(`n = -1.5e10`, `print(n, -0.25, 1e-3)`)
	add(`l = [[1, 2], [3, [4, 5]], []]`, `print(l)`)
	add(`x = ((((((42))))))`, `print(x)`)
	add(`print("a", "b", "c")`, `print(1)`, `print(true, false)`)
	add(`x = 1`, `x = 2`, `x = [x, x]`, `print(x)`)

	// Loading and basic verbs.
	add(`w = load_table("work")`, `print(nrows(w))`, `result(w)`)
	add(`w = load_table("work")`, `s = select(w, ["x", "y"])`, `result(s)`)
	add(`w = load_table("work")`, `r = rename(w, "y", "value")`, `result(r)`)
	add(`w = load_table("work")`, `t = head(sort(w, "y", true), 2)`, `result(t)`)
	add(`w = load_table("work")`, `t = head(sort(w, "y", false), 3)`, `result(t)`)
	add(`w = load_table("work")`, `d = distinct(w, "name")`, `result(d)`)
	add(`w = load_table("work")`, `c = concat(w, w)`, `print(nrows(c))`, `result(c)`)
	add(`w = load_table("work")`, `j = join(w, w, "x")`, `result(j)`)

	// Filters: every comparator over both numeric columns at several
	// thresholds — the bulk of the generated corpus.
	for _, fn := range []string{"filter_gt", "filter_ge", "filter_lt", "filter_le"} {
		for _, col := range []string{"x", "y"} {
			for _, th := range []string{"0", "2", "-3", "10.5"} {
				add(`w = load_table("work")`,
					fmt.Sprintf(`f = %s(w, %q, %s)`, fn, col, th),
					`print(nrows(f))`, `result(f)`)
			}
		}
	}
	add(`w = load_table("work")`, `f = filter_eq(w, "name", "a")`, `result(f)`)
	add(`w = load_table("work")`, `f = filter_ne(w, "name", "a")`, `result(f)`)
	add(`w = load_table("work")`, `f = filter_in(w, "x", [1, 3])`, `result(f)`)

	// Derivations.
	for _, fn := range []string{"derive_ratio", "derive_product", "derive_sum", "derive_sub"} {
		add(`w = load_table("work")`,
			fmt.Sprintf(`d = %s(w, "x", "y", "out")`, fn),
			`result(d)`)
	}
	add(`w = load_table("work")`, `d = derive_abs(w, "y", "ay")`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_scale(w, "x", 2.5, "sx")`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_const(w, "k", 7)`, `result(d)`)
	add(`w = load_table("work")`, `d = derive_zscore(w, "y", "zy")`, `result(d)`)

	// Stats and aggregation.
	add(`w = load_table("work")`, `g = groupby(w, "name", "y", "mean")`, `result(g)`)
	add(`w = load_table("work")`, `g = groupby(w, "name", "x", "sum")`, `result(g)`)
	add(`w = load_table("work")`, `fit = linfit(w, "x", "y")`, `result(fit)`)
	add(`w = load_table("work")`, `c = corr(w, "x", "y")`, `print(c)`)
	add(`w = load_table("work")`, `h = histogram(w, "y", 3)`, `result(h)`)

	// Artifacts: CSV and plots, byte-identical across runs.
	add(`w = load_table("work")`, `save_csv(w, "all.csv")`, `result(w)`)
	add(`w = load_table("work")`, `save_csv(head(w, 2), "two.csv")`, `save_csv(w, "all.csv")`)
	add(`w = load_table("work")`, `scatter_plot(w, "x", "y", "t", "sc.svg")`)
	add(`w = load_table("work")`, `line_plot(w, "x", "y", "t", "ln.svg")`)
	add(`w = load_table("work")`, `hist_plot(w, "y", 4, "h.svg")`)

	// Error paths: the same Python-like texts on every run.
	add(`x = missing_var`)
	add(`nosuchfn(1)`)
	add(`w = load_table("missing")`)
	add(`w = load_table("work")`, `f = filter_gt(w, "nope", 1)`)
	add(`w = load_table("work")`, `s = select(w, ["x", "nope"])`)
	add(`w = load_table("work")`, `s = sort(w, 1, true)`)
	add(`w = load_table("work")`, `h = head(w)`)
	add(`print(missing)`)
	add(`x = 1`, `y = x(1)`)
	add(`result(1)`)
	add(`save_csv(1, "x.csv")`)
	add(`w = load_table("work")`, `print(nrows(w))`, `boom = filter_gt(w, "x")`)

	// Mixed multi-step pipelines.
	add(`w = load_table("work")`,
		`pos = filter_gt(w, "y", 0)`,
		`s = sort(pos, "y", true)`,
		`t = head(s, 2)`,
		`save_csv(t, "top.csv")`,
		`print("rows:", nrows(t))`,
		`result(t)`)
	add(`w = load_table("work")`,
		`d = derive_ratio(w, "y", "x", "r")`,
		`f = filter_ge(d, "r", 0)`,
		`g = groupby(f, "name", "r", "mean")`,
		`result(g)`)
	add(`w = load_table("work")`,
		`a = select(w, ["x", "y"])`,
		`b = rename(a, "y", "v")`,
		`c = concat(b, b)`,
		`d = distinct(c, "x")`,
		`print(nrows(a), nrows(b), nrows(c), nrows(d))`,
		`result(d)`)

	return corpus
}
