package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
)

// cmdRegister bulk-registers a directory of contract specifications
// through the deduplicating batch path (core.DB.RegisterBatch). Each
// regular file in the directory is one contract: the name is the file
// name without its extension, the spec is the file's contents. Files
// are processed in sorted name order so repeated runs are
// deterministic.
func cmdRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	dir := fs.String("dir", "", "directory of spec files (one contract per file)")
	workers := fs.Int("workers", 0, "parallel registration workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *dbPath == "" || *dir == "" {
		return fmt.Errorf("register: -db and -dir are required")
	}
	specs, err := readSpecDir(*dir)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("register: no spec files in %s", *dir)
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	start := time.Now()
	results := db.RegisterBatch(context.Background(), specs, *workers)
	ok, failed := 0, 0
	for i, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "register: %s: %v\n", specs[i].Name, r.Err)
		} else {
			ok++
		}
	}
	fmt.Fprintf(os.Stderr, "registered %d contracts (%d failed) from %s in %v\n",
		ok, failed, *dir, time.Since(start).Round(time.Millisecond))
	if ok == 0 {
		return fmt.Errorf("register: no contracts registered")
	}
	return saveDB(db, *dbPath)
}

// readSpecDir collects the contracts in dir: one per regular file,
// named after the file, sorted by name for determinism.
func readSpecDir(dir string) ([]core.Registration, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	var specs []core.Registration
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		text := strings.TrimSpace(string(data))
		if text == "" {
			continue
		}
		spec, err := ltl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("register: %s: %w", e.Name(), err)
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		specs = append(specs, core.Registration{Name: name, Spec: spec})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}
