package api

// The streaming vocabulary. Two endpoints stream instead of answering with
// one envelope:
//
//   - GET /v1/search/{id}/events serves Server-Sent Events: each SSE
//     message's data line is one SearchEvent, its id line is the event's
//     Seq (so Last-Event-ID or ?after= resumes a dropped stream from the
//     events the job retains), and its event line is the Type. The stream
//     ends after the terminal event, which every stream carries: a
//     subscriber that falls behind may have progress and front events
//     dropped, never the terminal one. The server fills such a gap from
//     the job's retained events before it writes on; only events the job
//     no longer retains (it keeps the newest few thousand) are missing,
//     and the Seq jump shows where. Subscribing to a finished job replays
//     the retained events and terminates immediately.
//   - POST /v1/sweep?stream=1 serves newline-delimited JSON: one
//     SweepStreamHeader frame, then one SweepItem frame per configuration
//     in input order as results become available, then one
//     SweepStreamTrailer frame. Item frames are flushed as they are
//     written, so a consumer sees results while later chunks still
//     evaluate.

// Search event types. Progress and front events are incremental; the
// terminal event reuses the job-state vocabulary (JobDone, JobFailed,
// JobCancelled) as its type and carries the report on success.
const (
	// SearchEventProgress is one generation's convergence-trace step.
	SearchEventProgress = "progress"
	// SearchEventFront reports that the Pareto front changed, carrying
	// the full front so far.
	SearchEventFront = "front"
)

// SearchEvent is one message on a search job's event stream.
type SearchEvent struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	// Seq numbers events from 1 per job; it is the SSE message id, and
	// the token a resuming subscriber passes as Last-Event-ID.
	Seq int `json:"seq"`
	// Type is "progress", "front", or a terminal job state ("done",
	// "failed", "cancelled").
	Type string `json:"type"`
	// Generation and Evaluations are cumulative progress counters,
	// set on progress and front events.
	Generation  int `json:"generation,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`
	// Best is the incumbent at this point of the run (progress events;
	// omitted until a feasible point exists).
	Best *SearchEval `json:"best,omitempty"`
	// Front is the Pareto front over everything evaluated so far (front
	// events only).
	Front []SearchEval `json:"front,omitempty"`
	// Error is set on a terminal "failed" event.
	Error string `json:"error,omitempty"`
	// Report is set on a terminal "done" event — the same report
	// GET /v1/search/{id} serves, byte-identical.
	Report *SearchReport `json:"report,omitempty"`
}

// Terminal reports whether this event ends the stream.
func (e *SearchEvent) Terminal() bool {
	return e.Type == JobDone || e.Type == JobFailed || e.Type == JobCancelled
}

// SweepStreamHeader opens a streamed sweep: the workload and how many item
// frames will follow.
type SweepStreamHeader struct {
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload"`
	Count         int    `json:"count"`
}

// SweepItem is one configuration's frame of a streamed sweep, in input
// order. Exactly one of Result and Error is set.
type SweepItem struct {
	// Index is the configuration's position in the expanded request.
	Index  int     `json:"index"`
	Config string  `json:"config,omitempty"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// SweepStreamTrailer closes a streamed sweep with result/error counts; a
// non-empty Error reports a run-level failure (e.g. cancellation) that
// truncated the stream.
type SweepStreamTrailer struct {
	Done    bool   `json:"done"`
	Results int    `json:"results"`
	Errors  int    `json:"errors,omitempty"`
	Error   string `json:"error,omitempty"`
}
