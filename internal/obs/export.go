package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"isolbench/internal/device"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// SpanJSON is the JSONL export schema for one span. Durations are in
// nanoseconds of virtual time; stage keys match Stage.String().
type SpanJSON struct {
	ID      uint64           `json:"id"`
	Cgroup  int              `json:"cg"`
	App     int              `json:"app"`
	Op      string           `json:"op"`
	Size    int64            `json:"size"`
	Submit  sim.Time         `json:"t"`
	Stages  map[string]int64 `json:"stages"`
	Total   int64            `json:"total"`
	Retries int              `json:"retries,omitempty"`
	Failed  bool             `json:"failed,omitempty"`
	Status  string           `json:"status,omitempty"`
	Blame   []ChargeJSON     `json:"blame,omitempty"`
}

// ChargeJSON is one wait-for-whom charge on a span: ns of the span's
// wait at layer, attributable to cgroup aggr (-1 = the folded "other"
// bucket).
type ChargeJSON struct {
	Layer string `json:"layer"`
	Aggr  int    `json:"aggr"`
	Ns    int64  `json:"ns"`
}

func chargesJSON(cs []attr.Charge) []ChargeJSON {
	if len(cs) == 0 {
		return nil
	}
	out := make([]ChargeJSON, len(cs))
	for i, c := range cs {
		out[i] = ChargeJSON{Layer: c.Layer.String(), Aggr: c.Aggr, Ns: int64(c.D)}
	}
	return out
}

func spanJSON(sp Span) SpanJSON {
	op := "r"
	if sp.Op == device.Write {
		op = "w"
	}
	stages := make(map[string]int64, NumStages)
	for st := 0; st < int(NumStages); st++ {
		stages[Stage(st).String()] = int64(sp.Stages[st])
	}
	status := ""
	if sp.Failed {
		status = "failed"
	}
	return SpanJSON{
		ID: sp.ID, Cgroup: sp.Cgroup, App: sp.App, Op: op, Size: sp.Size,
		Submit: sp.Submit, Stages: stages, Total: int64(sp.Total()),
		Retries: sp.Retries, Failed: sp.Failed, Status: status,
		Blame: chargesJSON(sp.Blame),
	}
}

// BlameCellJSON is one cell of the aggregated blame matrix: total ns
// victim waited at layer because aggr occupied the resource.
type BlameCellJSON struct {
	Victim int    `json:"victim"`
	Layer  string `json:"layer"`
	Aggr   int    `json:"aggr"`
	Ns     int64  `json:"ns"`
}

// blameRowJSON wraps a matrix cell so blame lines are distinguishable
// from span lines in the same stream.
type blameRowJSON struct {
	Blame BlameCellJSON `json:"blame_cell"`
}

// IncidentJSON is the JSONL export schema for one run-level incident
// (watchdog abort, cancellation, invariant violation). Incident lines
// follow the span lines so trace consumers can attribute an aborted
// unit's truncated stream.
type IncidentJSON struct {
	Incident string   `json:"incident"`
	Detail   string   `json:"detail"`
	At       sim.Time `json:"t"`
}

// WriteSpansJSONL writes the retained spans as JSON lines, one request
// per line.
func (o *Observer) WriteSpansJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range o.Spans() {
		if err := enc.Encode(spanJSON(sp)); err != nil {
			return err
		}
	}
	if o.Attr != nil {
		for _, c := range o.Attr.Cells() {
			row := blameRowJSON{Blame: BlameCellJSON{
				Victim: c.Victim, Layer: c.Layer.String(), Aggr: c.Aggr, Ns: int64(c.D),
			}}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
	}
	for _, in := range o.Incidents() {
		if err := enc.Encode(IncidentJSON{Incident: in.Kind, Detail: in.Detail, At: in.At}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format (loadable
// by Perfetto and chrome://tracing). Timestamps and durations are in
// microseconds, as the format requires.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the trace format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const usPerNs = 1e-3

// WriteChromeTrace writes the retained spans in Chrome trace-event
// JSON. Each request becomes a contiguous run of complete ("X") slices
// — one per nonzero stage — on track (pid=cgroup, tid=app), so the
// per-stage slices of a request visually tile its end-to-end latency.
// Controller series are appended as counter ("C") events.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return nil
	}
	var tr chromeTrace
	tr.DisplayTimeUnit = "ns"

	named := make(map[int]bool)
	for _, sp := range o.Spans() {
		if !named[sp.Cgroup] {
			named[sp.Cgroup] = true
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: sp.Cgroup,
				Args: map[string]interface{}{"name": o.nameOf(sp.Cgroup)},
			})
		}
		op := "r"
		if sp.Op == device.Write {
			op = "w"
		}
		at := sp.Submit
		for st := 0; st < int(NumStages); st++ {
			d := sp.Stages[st]
			if d <= 0 {
				continue
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: Stage(st).String(), Cat: "io", Ph: "X",
				Ts: float64(at) * usPerNs, Dur: float64(d) * usPerNs,
				PID: sp.Cgroup, TID: sp.App,
				Args: map[string]interface{}{"id": sp.ID, "op": op, "size": sp.Size},
			})
			at = at.Add(d)
		}
	}
	for _, s := range o.AllSeries() {
		pid := s.Cgroup
		if pid < 0 {
			pid = 0
		}
		for _, p := range s.Points() {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: s.Name, Cat: "controller", Ph: "C",
				Ts: float64(p.At) * usPerNs, PID: pid, TID: 0,
				Args: map[string]interface{}{"value": p.V},
			})
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(tr); err != nil {
		return err
	}
	return bw.Flush()
}
