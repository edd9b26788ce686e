package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Record is one span-style structured trace record: an event observed at
// one node at one layer, with enough context (verb, class, cause) to
// reconstruct per-flow paths, gradient timelines and message budgets
// offline. Message events use verbs "org" (originated here) and "fwd"
// (processed from a neighbor); fault events use layer "fault" and the
// fault kind as the verb.
type Record struct {
	// US is the simulation timestamp in microseconds.
	US    int64  `json:"us"`
	Node  uint32 `json:"node"`
	Layer string `json:"layer"`
	Verb  string `json:"verb"`
	Class string `json:"class,omitempty"`
	// ID is the message origination id ("%08x:%d"); empty on faults.
	ID string `json:"id,omitempty"`
	// From is the neighbor a trace org/fwd record's message came from (the
	// recording node itself on org).
	From uint32 `json:"from,omitempty"`
	// Peer is the second endpoint of link-fault events.
	Peer uint32 `json:"peer,omitempty"`
	Hops int    `json:"hops,omitempty"`
	// Cause annotates why the event happened (e.g. a reinforcement's
	// exploratory cause, or a flight-path drop reason), free-form.
	Cause string `json:"cause,omitempty"`
	// Flow is the sampled flight-path flow ID; zero (omitted) on records
	// that are not span events.
	Flow uint16 `json:"flow,omitempty"`
}

// At returns the record's simulation time.
func (r Record) At() time.Duration { return time.Duration(r.US) * time.Microsecond }

// RunInfo is the self-describing header of an exported trace: the
// experiment configuration needed to replay the run (seed, topology,
// protocol rates, fault script) plus export accounting. Durations are
// strings in time.Duration syntax.
type RunInfo struct {
	Seed                int64    `json:"seed"`
	Topology            string   `json:"topology"`
	Nodes               int      `json:"nodes"`
	InterestInterval    string   `json:"interest_interval,omitempty"`
	GradientLifetime    string   `json:"gradient_lifetime,omitempty"`
	ExploratoryInterval string   `json:"exploratory_interval,omitempty"`
	ExploratoryEvery    int      `json:"exploratory_every,omitempty"`
	TTL                 int      `json:"ttl,omitempty"`
	FaultScript         []string `json:"fault_script,omitempty"`
	// DroppedEvents and DroppedFaults count records lost to the trace
	// memory bounds; non-zero means the tail of the run is missing.
	DroppedEvents int `json:"dropped_events,omitempty"`
	DroppedFaults int `json:"dropped_faults,omitempty"`
	// Node, Boot and StartUnixUS scope a live node's span ring (diffnode's
	// GET /spans): the node, its boot nonce, and the wall-clock base its
	// record times count from. Simulator traces leave them out.
	Node        uint32 `json:"node,omitempty"`
	Boot        uint32 `json:"boot,omitempty"`
	StartUnixUS int64  `json:"start_unix_us,omitempty"`
}

// header is the first JSONL line: a magic marker plus the run info, so a
// trace file is self-identifying.
type header struct {
	Trace   string  `json:"trace"`
	Version int     `json:"version"`
	Run     RunInfo `json:"run"`
	Records int     `json:"records"`
}

const (
	traceMagic   = "diffusion"
	traceVersion = 1
)

// WriteJSONL exports a trace as one JSON object per line: a header line
// carrying the run info, then one line per record in time order.
func WriteJSONL(w io.Writer, info RunInfo, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Trace: traceMagic, Version: traceVersion, Run: info, Records: len(recs)}); err != nil {
		return err
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrNotTrace marks input that does not start with a diffusion trace
// header.
var ErrNotTrace = errors.New("telemetry: not a diffusion JSONL trace (missing header line)")

// ReadJSONL parses a JSONL trace produced by WriteJSONL. Traces come from
// files and sockets, so the header's record count sizes nothing.
func ReadJSONL(r io.Reader) (RunInfo, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return RunInfo{}, nil, err
		}
		return RunInfo{}, nil, ErrNotTrace
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Trace != traceMagic {
		return RunInfo{}, nil, ErrNotTrace
	}
	var recs []Record
	line := 1
	for sc.Scan() {
		line++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return h.Run, recs, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	return h.Run, recs, sc.Err()
}

// chromeEvent is one entry of the Chrome trace_event "JSON Array Format".
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts,omitempty"`
	PID  int            `json:"pid"`
	TID  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports a trace in Chrome trace_event format, loadable
// in chrome://tracing or Perfetto: one lane (thread) per node, message
// and fault events as thread-scoped instants, and the run info attached
// as trace metadata.
func WriteChromeTrace(w io.Writer, info RunInfo, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","otherData":`); err != nil {
		return err
	}
	infoJSON, err := json.Marshal(info)
	if err != nil {
		return err
	}
	bw.Write(infoJSON)
	io.WriteString(bw, `,"traceEvents":[`)

	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Name each node's lane. The whole trace is one process; tid = node.
	seen := map[uint32]bool{}
	for _, r := range recs {
		if seen[r.Node] {
			continue
		}
		seen[r.Node] = true
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: r.Node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", r.Node)},
		}); err != nil {
			return err
		}
	}
	for _, r := range recs {
		name := r.Class
		if name == "" {
			name = r.Verb // faults have no class
		}
		args := map[string]any{"layer": r.Layer, "verb": r.Verb}
		if r.ID != "" {
			args["id"] = r.ID
		}
		if r.From != 0 {
			args["from"] = r.From
		}
		if r.Peer != 0 {
			args["peer"] = r.Peer
		}
		if r.Hops != 0 {
			args["hops"] = r.Hops
		}
		if r.Flow != 0 {
			args["flow"] = r.Flow
		}
		if r.Cause != "" {
			args["cause"] = r.Cause
		}
		if err := emit(chromeEvent{
			Name: name, Ph: "i", TS: r.US, PID: 1, TID: r.Node, S: "t", Args: args,
		}); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
