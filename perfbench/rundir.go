package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Every run works in its own directory under runsDir, and where a run's
// files land on disk matters for its timings. The asks create and delete
// files at a high rate (provenance records, staging databases, sandbox
// temp dirs), and ext4 without a journal does not hand out an inode that
// was freed in the last minute (five when its inode table block is still
// dirty): the allocator checks each such inode and skips it, so a create
// in a block group next to a freshly deleted tree scans every inode of
// that tree first. A run that starts beside the tree the previous run
// just removed pays that on every file it creates, several times the
// cost of the same create on a quiet group.
//
// So runsDir carries the "top of directory hierarchy" flag (chattr +T):
// ext4's Orlov allocator places each of its subdirectories in the block
// group with the fewest directories instead of next to the parent. A
// finished run empties its directory but keeps the directory itself, so
// its group keeps a directory and is not chosen again while its freed
// inodes are recent; the keepRunDirs newest of those empty directories
// stay, older ones are removed. On other file systems the flag is
// ignored and the layout does no harm.
const runsDir = buildDir + "/runs"

// keepRunDirs is how many emptied run directories stay behind. Runs last
// at least half a minute, so twelve of them cover the five minutes a
// freed inode counts as recent.
const keepRunDirs = 12

// newRunDir creates the work directory of one run, removing the oldest
// emptied directories of earlier runs past keepRunDirs.
func newRunDir() (string, error) {
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return "", err
	}
	setTopDir(runsDir)
	pruneRunDirs()
	return os.MkdirTemp(runsDir, "run-*")
}

// emptyRunDir removes everything a run wrote but keeps its directory.
func emptyRunDir(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.RemoveAll(filepath.Join(dir, e.Name()))
	}
}

// pruneRunDirs removes the run directories past the keepRunDirs newest,
// with whatever they still hold: a run that exited early leaves its files
// behind.
func pruneRunDirs() {
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return
	}
	type runDirInfo struct {
		path string
		mod  int64
	}
	var dirs []runDirInfo
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		dirs = append(dirs, runDirInfo{filepath.Join(runsDir, e.Name()), info.ModTime().UnixNano()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod > dirs[j].mod })
	for i := keepRunDirs; i < len(dirs); i++ {
		os.RemoveAll(dirs[i].path)
	}
}
