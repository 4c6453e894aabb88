package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"infera/internal/gio"
	"infera/internal/hacc"
)

// buildDir holds everything the benchmark writes: cached ensembles and
// per-run work directories. It is relative to the working directory, the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// keepEnsembles bounds the generated-ensemble cache: the oldest entries
// past it are removed, so runs over many seeds keep disk use flat.
const keepEnsembles = 8

// benchSteps are the snapshot steps every workload's ensemble holds.
var benchSteps = []int{99, 249, 399, 498, 624}

func ensembleSpec(halos int, seed int64) hacc.Spec {
	return hacc.Spec{Runs: 4, Steps: benchSteps, HalosPerRun: halos, ParticlesPerStep: 100, BoxSize: 256, Seed: seed}
}

// cachedEnsemble returns the directory of the generated ensemble for
// (halos, seed), generating it first when the cache lacks it. Generation
// runs in a child process so neither its time nor its memory shows in the
// workload's metrics.
func cachedEnsemble(halos int, seed int64) (string, error) {
	root := filepath.Join(buildDir, "ensembles")
	dir := filepath.Join(root, fmt.Sprintf("h%d-s%d", halos, seed))
	if _, err := os.Stat(filepath.Join(dir, "ensemble.json")); err == nil {
		now := time.Now()
		_ = os.Chtimes(dir, now, now) // mark as recently used for pruning
		return dir, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(root, "gen-*")
	if err != nil {
		return "", err
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "--gen-dir", tmp, "--gen-halos", strconv.Itoa(halos), "--seed", strconv.FormatInt(seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("generate ensemble: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		if _, statErr := os.Stat(filepath.Join(dir, "ensemble.json")); statErr == nil {
			return dir, nil // a concurrent run generated it first
		}
		return "", err
	}
	pruneEnsembles(root)
	return dir, nil
}

// generate is the child-process side of cachedEnsemble.
func generate(dir string, halos int, seed int64) error {
	_, err := hacc.Generate(dir, ensembleSpec(halos, seed))
	return err
}

func pruneEnsembles(root string) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	var dirs []aged
	for _, e := range ents {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		dirs = append(dirs, aged{filepath.Join(root, e.Name()), info.ModTime().UnixNano()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod > dirs[j].mod })
	for i := keepEnsembles; i < len(dirs); i++ {
		os.RemoveAll(dirs[i].path)
	}
}

// copyTree copies the ensemble at src into dst, for workloads that
// rewrite files and so must not touch the shared cache.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// rewriteHalos atomically replaces one haloproperties file with a copy
// whose float columns are scaled by factor (temp file + rename, as a
// pipeline publishing a corrected snapshot would). Row count and file
// size are unchanged.
func rewriteHalos(path string, factor float64) error {
	r, err := gio.Open(path)
	if err != nil {
		return err
	}
	f, err := r.ReadAll()
	meta := r.Meta()
	r.Close()
	if err != nil {
		return err
	}
	for _, name := range []string{"fof_halo_mass", "fof_halo_vel_disp", "sod_halo_MGas500c"} {
		v := f.MustColumn(name).Floats()
		for i := range v {
			v[i] *= factor
		}
	}
	tmp := path + ".tmp"
	if err := gio.WriteFile(tmp, f, meta); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
