package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"contractdb/internal/core"
)

// cmdSnapshot dispatches the snapshot subcommands. Today there is
// one: inspect, which prints a snapshot file's structure — the full
// section directory with sizes and CRCs plus a per-contract slab
// footprint.
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: ctdb snapshot inspect <file-or-data-dir>")
	}
	switch args[0] {
	case "inspect":
		return cmdSnapshotInspect(args[1:])
	default:
		return fmt.Errorf("unknown snapshot subcommand %q (want inspect)", args[0])
	}
}

func cmdSnapshotInspect(args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ExitOnError)
	perContract := fs.Bool("contracts", false, "also list the per-contract slab footprint")
	top := fs.Int("top", 10, "with -contracts, show only the N largest (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ctdb snapshot inspect [-contracts] [-top N] <file-or-data-dir>")
	}
	path, err := resolveSnapshotPath(fs.Arg(0))
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	insp, err := core.InspectSnapshot(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	printInspection(path, insp, *perContract, *top)
	return nil
}

// resolveSnapshotPath accepts a snapshot file directly, or a store
// data directory, in which case the newest (highest-boundary)
// snapshot-*.ctdb inside it is picked.
func resolveSnapshotPath(arg string) (string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return arg, nil
	}
	matches, err := filepath.Glob(filepath.Join(arg, "snapshot-*.ctdb"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("%s: no snapshot-*.ctdb files", arg)
	}
	// Names embed a zero-padded boundary, so lexicographic max is the
	// newest snapshot.
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func printInspection(path string, insp *core.SnapshotInspection, perContract bool, top int) {
	fmt.Printf("%s\n", path)
	legacy := ""
	if v := core.SnapshotFormatVersion(); insp.FormatVersion < v {
		legacy = fmt.Sprintf(" (legacy: still loads; the next checkpoint writes v%d)", v)
	}
	fmt.Printf("  format:    v%d container%s, count-agnostic (indexes rebuilt at load)\n", insp.FormatVersion, legacy)
	fmt.Printf("  file:      %s (head %s, slabs %s)\n",
		fmtBytes(insp.FileBytes), fmtBytes(insp.HeadBytes), fmtBytes(insp.SlabBytes))
	fmt.Printf("  contracts: %d\n", insp.Contracts)
	fmt.Printf("  events:    %d\n", insp.Events)
	fmt.Printf("  sections:  %d\n", len(insp.Sections))
	for _, s := range insp.Sections {
		fmt.Printf("    %-16s %12s  crc32c=%08x\n", s.Name, fmtBytes(s.Bytes), s.CRC)
	}
	if !perContract || len(insp.PerContract) == 0 {
		return
	}
	fp := append([]core.ContractFootprint(nil), insp.PerContract...)
	sort.Slice(fp, func(i, j int) bool { return fp[i].SlabBytes > fp[j].SlabBytes })
	shown := len(fp)
	if top > 0 && top < shown {
		shown = top
	}
	fmt.Printf("  largest contracts (%d of %d):\n", shown, len(fp))
	for _, c := range fp[:shown] {
		fmt.Printf("    %-32s %12s\n", c.Name, fmtBytes(c.SlabBytes))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return strings.TrimSuffix(fmt.Sprintf("%.1f", float64(n)/(1<<20)), ".0") + " MiB"
	case n >= 1<<10:
		return strings.TrimSuffix(fmt.Sprintf("%.1f", float64(n)/(1<<10)), ".0") + " KiB"
	default:
		return fmt.Sprintf("%d B", n)
	}
}
