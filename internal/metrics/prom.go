package metrics

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
)

// WritePrometheus renders v — a snapshot made of JSON-tagged structs,
// such as the /v1/metrics payload — in the Prometheus text exposition
// format (version 0.0.4), followed by the Go runtime gauges. The JSON
// payload is the one registry: a family's name is "ctdb_" plus the
// JSON names on its path joined by "_", so no family can exist in one
// rendering and be missing from the other.
//
//   - A HistogramSnapshot becomes a histogram in seconds, its name
//     suffixed "_seconds".
//   - A numeric slice becomes a gauge with one sample per element,
//     labelled shard="<index>".
//   - Every other numeric leaf is untyped: the payload does not say
//     whether a number counts up or goes both ways.
//
// Strings, booleans, nil pointers, empty slices and `json:"-"` fields
// are skipped: they carry no number in the JSON.
func WritePrometheus(w io.Writer, v any) error {
	bw := bufio.NewWriter(w)
	writeFamilies(bw, "ctdb", reflect.ValueOf(v))
	writeRuntime(bw)
	return bw.Flush()
}

var histogramType = reflect.TypeFor[HistogramSnapshot]()

func writeFamilies(w *bufio.Writer, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			writeFamilies(w, name, v.Elem())
		}
	case reflect.Struct:
		if v.Type() == histogramType {
			writeHistogram(w, name+"_seconds", v.Interface().(HistogramSnapshot))
			return
		}
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case !f.IsExported() || tag == "-":
			case tag == "" && f.Anonymous:
				writeFamilies(w, name, fv) // JSON promotes an embedded struct's fields
			case tag == "":
				writeFamilies(w, name+"_"+f.Name, fv)
			default:
				writeFamilies(w, name+"_"+tag, fv)
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return
		}
		if _, ok := number(v.Index(0)); !ok {
			return
		}
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		for i := range v.Len() {
			s, _ := number(v.Index(i))
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", name, i, s)
		}
	default:
		if s, ok := number(v); ok {
			fmt.Fprintf(w, "# TYPE %s untyped\n%s %s\n", name, name, s)
		}
	}
}

// number formats an integer or float leaf; ok is false for any other
// kind.
func number(v reflect.Value) (s string, ok bool) {
	switch {
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10), true
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10), true
	case v.CanFloat():
		return formatFloat(v.Float()), true
	}
	return "", false
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// writeHistogram renders a snapshot in seconds: cumulative _bucket
// samples at the power-of-two microsecond boundaries, then _sum and
// _count. The last internal bucket (which absorbs everything from
// ~4.2s up) maps to le="+Inf". A snapshot without buckets renders as
// all-zero buckets.
func writeHistogram(w *bufio.Writer, name string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i := range NumBuckets - 1 {
		if i < len(h.Buckets) {
			cum += h.Buckets[i]
		}
		// Bucket i counts microsecond values of bit-length i, so its
		// inclusive upper bound is 2^i - 1 µs (bucket 0 is exactly 0).
		le := float64((int64(1)<<i)-1) / 1e6
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(float64(h.SumUS)/1e6), name, h.Count)
}

// writeRuntime renders the process gauges: goroutines, heap, and GC
// pause accounting from runtime.MemStats.
func writeRuntime(w *bufio.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	gauge("go_memstats_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects))
	gauge("go_memstats_sys_bytes", "Bytes obtained from the OS.", float64(ms.Sys))
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
	gauge("go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
	var last float64
	if ms.NumGC > 0 {
		last = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	gauge("go_gc_pause_last_seconds", "Most recent GC stop-the-world pause.", last)
}
