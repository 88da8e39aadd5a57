package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/corpus"
)

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	out := fs.String("out", "", "corpus file to write (default stdout)")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("export: -db is required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	var entries []corpus.Entry
	for _, c := range db.Contracts() {
		entries = append(entries, corpus.Entry{Name: c.Name, Spec: c.Spec})
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := corpus.Write(w, entries); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported %d contracts\n", len(entries))
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	in := fs.String("in", "", "corpus file to read")
	workers := fs.Int("workers", 0, "parallel registration workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *dbPath == "" || *in == "" {
		return fmt.Errorf("import: -db and -in are required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	entries, err := corpus.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	specs := make([]core.Registration, len(entries))
	for i, e := range entries {
		specs[i] = core.Registration{Name: e.Name, Spec: e.Spec}
	}
	start := time.Now()
	results := db.RegisterBatch(context.Background(), specs, *workers)
	ok, failed := 0, 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "import:", r.Err)
		} else {
			ok++
		}
	}
	fmt.Fprintf(os.Stderr, "imported %d contracts (%d failed) in %v\n",
		ok, failed, time.Since(start).Round(time.Millisecond))
	return saveDB(db, *dbPath)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	name := fs.String("name", "", "contract to explain")
	spec := fs.String("spec", "", "LTL query")
	fs.Parse(args)
	if *dbPath == "" || *name == "" || *spec == "" {
		return fmt.Errorf("explain: -db, -name and -spec are required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	w, ok, err := db.ExplainLTL(context.Background(), *name, *spec)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Printf("%s does not permit the query\n", *name)
		return nil
	}
	fmt.Print(w.Format(db.Vocabulary()))
	return nil
}
