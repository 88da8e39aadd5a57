package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"contractdb/internal/paperex"
	"contractdb/internal/vocab"
)

// referencePush is the push route's decode as a StreamEventsRequest
// and its resolution as Broker.AppendEvents does it: the oracle
// decodePush must agree with.
func referencePush(w http.ResponseWriter, r *http.Request, voc *vocab.Vocabulary) ([]vocab.Set, bool) {
	var req StreamEventsRequest
	if !decodeBodyN(w, r, &req, 8<<20) {
		return nil, false
	}
	if len(req.Events) == 0 {
		writeErr(w, r, http.StatusBadRequest, errors.New("events is required"))
		return nil, false
	}
	snaps := make([]vocab.Set, len(req.Events))
	for i, evs := range req.Events {
		s, err := voc.SetOf(evs...)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("stream: events[%d]: %w", i, err))
			return nil, false
		}
		snaps[i] = s
	}
	return snaps, true
}

func decodeWith(decode func(http.ResponseWriter, *http.Request, *vocab.Vocabulary) ([]vocab.Set, bool), voc *vocab.Vocabulary, body []byte) ([]vocab.Set, bool, *httptest.ResponseRecorder) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/events", bytes.NewReader(body))
	sets, ok := decode(rec, req, voc)
	return sets, ok, rec
}

// FuzzPushBody: for any body, decodePush and referencePush agree on
// accepting it, on the status of a refusal and on the sets of an
// acceptance. A refusal other than a malformed body (events missing or
// empty, an unknown event) carries the same message on both sides.
func FuzzPushBody(f *testing.F) {
	for _, seed := range []string{
		`{"events":[["purchase"],null,[],["use","refund"]]}`,
		"{\"events\" : [ [\"\\u0070urchase\" , \"us\\u0065\"] ,\n[\"dateChange\",\"dateChange\"]]}",
		`{"events":[["bogus"]],"EVENTS":[["refund"]]}`,
		`{"events":[["refund"]],"events":null}`,
		`{"events":[[],["purchase","bogus"]]}`,
		`{"events":[[null]]}`,
		`{"events":[["purchase",7]]}`,
		`{"events":[{"a":"]"}]}`,
		`{"events":"[]"}`,
		`{"events":[]}`,
		`{"events":[["use"]],"extra":1}`,
		`{"events":[["p\"urchase]"]]}`,
		`{"events":[["\u00e9"],["é"]]}`,
		"{\"events\":[[\"\xffuse\"],[\"us\xc3\"]]}",
		`null`,
		`{"events":[["purchase"]]`,
	} {
		f.Add([]byte(seed))
	}
	voc := paperex.NewVocabulary()
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantOK, wantRec := decodeWith(referencePush, voc, body)
		got, gotOK, gotRec := decodeWith(decodePush, voc, body)
		if gotOK != wantOK || gotRec.Code != wantRec.Code {
			t.Fatalf("body %q: decodePush accepted=%v status %d (%s), reference accepted=%v status %d (%s)",
				body, gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decodePush sets %v, reference %v", body, got, want)
		}
		if !wantOK && !strings.Contains(wantRec.Body.String(), "bad request body") && gotRec.Body.String() != wantRec.Body.String() {
			t.Fatalf("body %q: decodePush refused with %s, reference with %s", body, gotRec.Body, wantRec.Body)
		}
	})
}

// streamMonitorBody is a push shaped like e2ebench stream_monitor's:
// 64 instants, most of them empty.
func streamMonitorBody() []byte {
	var b strings.Builder
	b.WriteString(`{"events":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		switch i % 16 {
		case 3:
			b.WriteString(`["purchase"]`)
		case 9:
			b.WriteString(`["use","dateChange"]`)
		default:
			b.WriteString(`[]`)
		}
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// BenchmarkPushDecode decodes a stream_monitor-shaped push body with
// the route's decoder and with the reference decode it replaced.
func BenchmarkPushDecode(b *testing.B) {
	voc := paperex.NewVocabulary()
	body := streamMonitorBody()
	for _, bc := range []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, *vocab.Vocabulary) ([]vocab.Set, bool)
	}{{"reference", referencePush}, {"scan", decodePush}} {
		b.Run(bc.name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/events", nil)
			rd := bytes.NewReader(body)
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				req.Body = io.NopCloser(rd)
				if _, ok := bc.decode(rec, req, voc); !ok {
					b.Fatal(rec.Body)
				}
			}
		})
	}
}
