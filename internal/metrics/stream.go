package metrics

// Stream collects the streaming-monitor subsystem's counters and
// latency histograms: event ingest volume, verdict transitions, stream
// lifecycle churn, and per-batch apply latency. One instance lives on
// each stream.Broker; the broker's WAL journal keeps its own
// Durability so stream persistence is reported separately from the
// contract store's.
type Stream struct {
	// Ingest path.
	Events  Counter // snapshots applied to stream frontiers
	Batches Counter // event batches applied (one Append = one batch)
	Apply   Histogram

	// Verdict side. Transitions excludes the initial verdict each
	// attachment emits at create time.
	Verdicts    Counter // verdicts emitted, including initial statuses
	Transitions Counter // status changes caused by events

	// Lifecycle.
	Creates Counter // streams opened
	Deletes Counter // streams closed
	Dropped Counter // journaled records skipped at apply (stream gone)

	// Flow control. SSEDropped counts verdicts shed to slow SSE
	// consumers (the subscriber got a `: dropped N` comment instead).
	SSEDropped Counter
}

// StreamSnapshot is the JSON view of Stream.
type StreamSnapshot struct {
	Events  int64             `json:"events"`
	Batches int64             `json:"batches"`
	Apply   HistogramSnapshot `json:"apply"`

	Verdicts    int64 `json:"verdicts"`
	Transitions int64 `json:"transitions"`

	Creates    int64 `json:"creates"`
	Deletes    int64 `json:"deletes"`
	Dropped    int64 `json:"dropped"`
	SSEDropped int64 `json:"sse_dropped"`
}

// Snapshot captures every stream counter and histogram.
func (s *Stream) Snapshot() StreamSnapshot {
	return StreamSnapshot{
		Events:      s.Events.Value(),
		Batches:     s.Batches.Value(),
		Apply:       s.Apply.Snapshot(),
		Verdicts:    s.Verdicts.Value(),
		Transitions: s.Transitions.Value(),
		Creates:     s.Creates.Value(),
		Deletes:     s.Deletes.Value(),
		Dropped:     s.Dropped.Value(),
		SSEDropped:  s.SSEDropped.Value(),
	}
}

// StreamGauges is the broker's point-in-time shape, sampled at scrape
// time (unlike the monotone counters above).
type StreamGauges struct {
	Active      int   `json:"active"`       // open streams
	Attachments int   `json:"attachments"`  // (stream, contract) monitor slots
	QueueDepths []int `json:"queue_depths"` // pending batches per ingest shard
	// QueueHighWater is the deepest each shard's queue has ever been;
	// VerdictLag is, per shard, the events acknowledged to producers
	// but not yet applied to frontiers (verdicts still owed).
	QueueHighWater []int64  `json:"queue_highwater,omitempty"`
	VerdictLag     []uint64 `json:"verdict_lag,omitempty"`
}
