package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"mipp"
	"mipp/api"
)

// The streaming handlers. Both run under the instrumented middleware, whose
// statusWriter forwards Flush, so every frame reaches the client as it is
// written.

// handleSweep dispatches POST /v1/sweep: the classic one-envelope response
// by default, NDJSON frames with ?stream=1.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	switch v := r.URL.Query().Get("stream"); v {
	case "":
		handleJSON(s, s.engine.Sweep)(w, r)
		return
	case "1", "true":
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad stream value %q (want 1)", v))
		return
	}
	req, ok := decodeRequest[api.SweepRequest](s, w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	started := false
	results, errCount := 0, 0
	sink := mipp.SweepSink{
		// The header is written by the engine's Start callback — after
		// admission succeeded — so a bad request or unknown workload
		// still gets the ordinary JSON error envelope below.
		Start: func(workload string, count int) error {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			if err := enc.Encode(api.SweepStreamHeader{
				SchemaVersion: api.SchemaVersion,
				Workload:      workload,
				Count:         count,
			}); err != nil {
				return err
			}
			flush()
			return nil
		},
		Item: func(item api.SweepItem) error {
			if item.Error != "" {
				errCount++
			} else {
				results++
			}
			if err := enc.Encode(item); err != nil {
				return err
			}
			flush()
			return nil
		},
	}
	err := s.engine.SweepStream(r.Context(), req, sink)
	switch {
	case err != nil && !started:
		s.writeError(w, statusFor(err), err)
		return
	case err != nil:
		// The stream is already open: report the run-level failure in the
		// trailer, the only channel left.
		_ = enc.Encode(api.SweepStreamTrailer{Done: true, Results: results, Errors: errCount, Error: err.Error()})
	default:
		_ = enc.Encode(api.SweepStreamTrailer{Done: true, Results: results, Errors: errCount})
	}
	flush()
}

// handleSearchEvents serves GET /v1/search/{id}/events as Server-Sent
// Events: each message's id is the event Seq, its event field the type,
// its data one api.SearchEvent. The stream replays retained events (from
// Last-Event-ID or ?after=), follows the job live, and ends after the
// terminal event — a finished job replays and closes immediately.
//
// Each wake-up writes every event already queued on the subscription with
// one Write and one Flush; the handler never waits for more. An event
// whose Seq skips past the last one written means the engine dropped
// events while this handler lagged: the handler re-subscribes from the
// last Seq it wrote, once per gap, and the retained log fills it in. A gap
// that the log has already trimmed reaches the client as a gap.
func (s *Server) handleSearchEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad after value %q", v))
			return
		}
		after = n
	}
	ch, cancel, err := s.engine.SearchEvents(id, after)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()
	s.logf("search job %s: event stream subscribed after=%d rid=%s",
		id, after, api.RequestIDFromContext(r.Context()))

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	bp := answerBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= maxPooledAnswer {
			*bp = buf
			answerBufs.Put(bp)
		}
	}()
	last := after // the Seq of the last event framed
	fresh := true // the next event is the first of a subscription
	for {
		var (
			ev api.SearchEvent
			ok bool
		)
		select {
		case <-r.Context().Done():
			return
		case ev, ok = <-ch:
		}
		buf = buf[:0]
	queued:
		for ok && err == nil {
			if ev.Seq > last+1 && !fresh {
				// Events were dropped from this subscription. A new one
				// replays them from the log, unless the log has trimmed
				// them: then its first event forwards the gap.
				cancel()
				ch, cancel, err = s.engine.SearchEvents(id, last)
				fresh = true
			} else {
				n := len(buf)
				if buf, err = appendFrame(buf, &ev); err != nil {
					buf = buf[:n]
				}
				last, fresh = ev.Seq, false
			}
			select {
			case ev, ok = <-ch:
			default:
				break queued
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if !ok || err != nil {
			return // the stream is complete, or cannot go on
		}
	}
}

// appendFrame appends ev's SSE message: its Seq as the id, its type as the
// event name and its JSON as the data line.
func appendFrame(dst []byte, ev *api.SearchEvent) ([]byte, error) {
	dst = append(dst, "id: "...)
	dst = strconv.AppendInt(dst, int64(ev.Seq), 10)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, ev.Type...)
	dst = append(dst, "\ndata: "...)
	dst, err := api.AppendSearchEvent(dst, ev)
	return append(dst, "\n\n"...), err
}
