package stream_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contractdb/internal/stream"
	"contractdb/internal/vocab"
)

// TestConcurrentPushChurn hammers one broker from every direction at
// once — event pushers on long-lived streams, create/delete churn on
// ephemeral ones, long-pollers and scrapers — and then checks that the
// long-lived streams consumed exactly the pushed event counts. Run
// under -race this is the subsystem's data-race probe.
func TestConcurrentPushChurn(t *testing.T) {
	db := testDB(t)
	b := newBroker(t, db, stream.Config{Shards: 4, QueueDepth: 64})
	ctx := context.Background()

	const fixed = 8
	var pushed [fixed]atomic.Uint64
	for i := 0; i < fixed; i++ {
		if _, err := b.Create(ctx, fmt.Sprintf("fixed-%d", i), []string{"PayBeforeUse", "NoUseAfterRefund"}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Pushers: batches of mixed events to the long-lived streams.
	for i := 0; i < fixed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("fixed-%d", i)
			batch := [][]string{{"use"}, {"pay"}, {}, {"change"}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.AppendEvents(ctx, name, batch); err != nil {
					t.Error(err)
					return
				}
				pushed[i].Add(uint64(len(batch)))
			}
		}(i)
	}

	// Churners: create, push, delete short-lived streams.
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d-%d", c, k)
				if _, err := b.Create(ctx, name, []string{"NoRefund"}); err != nil {
					t.Error(err)
					return
				}
				b.AppendEvents(ctx, name, [][]string{{"use"}, {"refund"}})
				if err := b.Delete(ctx, name); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}

	// Pollers: long-poll verdicts on streams that churn away beneath
	// them; ErrNotFound and empty timeouts are both fine.
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d-%d", p%3, k)
				if _, err := b.Verdicts(ctx, name, 0, time.Millisecond); err != nil && !errors.Is(err, stream.ErrNotFound) {
					t.Error(err)
					return
				}
				if _, err := b.Verdicts(ctx, fmt.Sprintf("fixed-%d", k%fixed), 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	// Scraper: Gauges + List + Metrics while everything churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Gauges()
			b.List()
			b.Metrics().Snapshot()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	b.WaitIdle()

	for i := 0; i < fixed; i++ {
		info, err := b.Info(fmt.Sprintf("fixed-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Events != pushed[i].Load() {
			t.Errorf("fixed-%d consumed %d events, pushed %d", i, info.Events, pushed[i].Load())
		}
	}
}

// TestCloseRacesOperations races Close against pushes, creates and
// deletes already past their entry check: each must either complete
// or refuse with ErrClosed, never send on a closed ingest queue.
func TestCloseRacesOperations(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for round := 0; round < 300; round++ {
		b, err := stream.New(db, stream.Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Create(ctx, "s", []string{"NoRefund"}); err != nil {
			t.Fatal(err)
		}
		// Close once the workers have made a round-dependent number of
		// calls, so it lands at varying points of their loops.
		var calls atomic.Int64
		closeAt := int64(round % 150)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					calls.Add(1)
					var err error
					name := fmt.Sprintf("g%d-%d", g, i/3)
					switch i % 3 {
					case 0:
						_, err = b.Append(ctx, "s", []vocab.Set{0})
					case 1:
						_, err = b.Create(ctx, name, []string{"NoRefund"})
					case 2:
						err = b.Delete(ctx, name)
					}
					if err != nil && !errors.Is(err, stream.ErrClosed) && !errors.Is(err, stream.ErrNotFound) {
						t.Errorf("round %d: %v", round, err)
					}
				}
			}(g)
		}
		for calls.Load() < closeAt {
			runtime.Gosched()
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
