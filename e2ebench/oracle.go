package main

import (
	"fmt"
	"slices"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/monitor"
	"contractdb/internal/vocab"
)

// checkAnswers compares the sampled daemon answers with the §3 full
// scan of an in-process oracle built from the same accepted specs: no
// index, no projections, no caches. Each mismatch is a failure.
func checkAnswers(s *Script, o *outcome) error {
	live := s.Corpus
	if s.Workload == "churn_mixed" {
		// The writer's final contract set: the residents plus the last
		// Depth churned-in contracts.
		pairs := len(s.Churn) - s.Depth
		live = append(append([]Spec(nil), s.Corpus...), s.Churn[pairs:]...)
	}
	voc, err := vocab.FromNames(s.Events...)
	if err != nil {
		return err
	}
	oracle := core.NewDB(voc, core.Options{ProjectionBudget: -1, QueryCacheSize: -1, ResultCacheSize: -1})
	for _, sp := range live {
		if _, err := oracle.RegisterLTL(sp.Name, sp.Text); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	mode := core.Unoptimized
	mode.NoCache = true
	for _, i := range answerSample(len(s.Queries)) {
		got, ok := o.answers[i]
		if !ok {
			continue // the query itself failed and is already counted
		}
		spec, err := ltl.Parse(s.Queries[i])
		if err != nil {
			return err
		}
		res, err := oracle.QueryMode(spec, mode)
		if err != nil {
			return fmt.Errorf("oracle query %d: %w", i, err)
		}
		want := make([]string, len(res.Matches))
		for j, c := range res.Matches {
			want[j] = c.Name
		}
		slices.Sort(want)
		got = slices.Sorted(slices.Values(got))
		if !slices.Equal(got, want) {
			o.fail("query %d %q: daemon matched %d contracts, oracle %d", i, s.Queries[i], len(got), len(want))
		}
	}
	return nil
}

// checkStreams replays every stream's pushed events through
// internal/monitor and compares the final status of each attachment
// and the applied event count with what the daemon reports.
func checkStreams(s *Script, o *outcome) error {
	voc, err := vocab.FromNames(s.Events...)
	if err != nil {
		return err
	}
	monitors := map[string]*monitor.Monitor{}
	for _, sp := range s.Corpus {
		spec, err := ltl.Parse(sp.Text)
		if err != nil {
			return err
		}
		a, err := ltl2ba.Translate(voc, spec)
		if err != nil {
			return err
		}
		monitors[sp.Name] = monitor.New(a)
	}
	perStream := map[string][]Push{}
	for _, p := range s.Pushes {
		perStream[p.Stream] = append(perStream[p.Stream], p)
	}
	// Replay stream by stream so one monitor per contract suffices.
	state := map[string][]monitor.Status{}
	events := map[string]uint64{}
	for _, st := range s.Streams {
		name, pushes := st.Name, perStream[st.Name]
		state[name] = make([]monitor.Status, len(st.Contracts))
		for k, cname := range st.Contracts {
			m := monitors[cname]
			m.Reset()
			status := m.Status()
		replay:
			for _, p := range pushes {
				for _, inst := range p.Events {
					set, err := voc.SetOf(inst...)
					if err != nil {
						return err
					}
					if status = m.Step(set); status == monitor.Violated {
						break replay
					}
				}
			}
			state[name][k] = status
		}
		for _, p := range pushes {
			events[name] += uint64(len(p.Events))
		}
	}
	reported := map[string]bool{}
	for _, info := range o.streams {
		reported[info.Name] = true
		want := state[info.Name]
		if info.Events != events[info.Name] {
			o.fail("stream %s applied %d events, pushed %d", info.Name, info.Events, events[info.Name])
			continue
		}
		for k, got := range info.Statuses {
			if k >= len(want) || got != want[k].String() {
				o.fail("stream %s contract %d: daemon %s, monitor replay %v", info.Name, k, got, want)
				break
			}
		}
	}
	for _, st := range s.Streams {
		if !reported[st.Name] {
			o.fail("stream %s missing from the daemon's list", st.Name)
		}
	}
	return nil
}
