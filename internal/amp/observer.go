package amp

import "encoding/binary"

// The unified instrumentation surface of the simulator: every
// noteworthy state change of a System is published as one Event to a
// single Observer installed via WithObserver (or implicitly via
// WithTelemetry). This replaces the scattered per-hook struct fields
// of earlier releases — one interface, one event vocabulary, however
// many consumers MultiObserver fans out to.

// EventKind classifies a system event.
type EventKind uint8

// Event kinds, in rough lifecycle order.
const (
	// EventRunStart fires at the top of Run/RunContext.
	EventRunStart EventKind = iota + 1
	// EventRunEnd fires when a run returns, clean or not.
	EventRunEnd
	// EventSwap fires when a thread swap completes (after the fault
	// injector let it through). Overhead carries the frozen-window
	// length in cycles, including any injected delay factor.
	EventSwap
	// EventSwapFailed fires when the reconfiguration controller drops
	// a requested swap (fault injection).
	EventSwapFailed
	// EventMorphOn / EventMorphOff fire on core morph reconfigurations.
	EventMorphOn
	EventMorphOff
	// EventWatchdogReset fires each time the progress watchdog sees
	// commits advancing and re-arms itself.
	EventWatchdogReset
	// EventWedged fires when a run aborts with a *WedgedError; Reason
	// holds the abort cause.
	EventWedged
	// EventCanceled fires when RunContext returns early because its
	// context was canceled.
	EventCanceled
)

// String names the kind for sinks and logs.
func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "run_start"
	case EventRunEnd:
		return "run_end"
	case EventSwap:
		return "swap"
	case EventSwapFailed:
		return "swap_failed"
	case EventMorphOn:
		return "morph_on"
	case EventMorphOff:
		return "morph_off"
	case EventWatchdogReset:
		return "watchdog_reset"
	case EventWedged:
		return "wedged"
	case EventCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Event is one system-level occurrence. It is passed by value and
// contains no pointers, so observing allocates nothing.
type Event struct {
	Kind  EventKind
	Cycle uint64
	// Overhead is the stall the event charged, in cycles (swap and
	// morph events).
	Overhead uint64
	// Delayed marks a swap whose overhead was inflated by the fault
	// injector.
	Delayed bool
	// ThreadOnCore is the binding after the event took effect.
	ThreadOnCore [2]int
	// Reason is the abort cause (wedge events).
	Reason string
}

// Observer receives every Event of a System, in program order, on the
// simulation goroutine. Implementations must be fast and must not call
// back into the System.
type Observer interface {
	Event(e Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Event implements Observer.
func (f ObserverFunc) Event(e Event) { f(e) }

// multiObserver fans events out to several observers in order.
type multiObserver []Observer

func (m multiObserver) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}

// MultiObserver combines observers; nils are dropped. Returns nil when
// nothing remains, a single observer unwrapped, or a fan-out.
func MultiObserver(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o == nil {
			continue
		}
		if m, ok := o.(multiObserver); ok {
			out = append(out, m...)
			continue
		}
		out = append(out, o)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// EventRecorder is an Observer that retains the full event stream and
// a canonical byte encoding of it. The byte form is what the
// cross-path identity suite compares: two runs whose recorders hold
// identical trace bytes saw identical event sequences, field for
// field, in identical order.
type EventRecorder struct {
	events []Event
	trace  []byte
}

// Event implements Observer.
func (r *EventRecorder) Event(e Event) {
	r.events = append(r.events, e)
	r.trace = appendEventTrace(r.trace, e)
}

// Events returns the recorded stream in arrival order. The slice
// aliases the recorder's storage; callers must not mutate it.
func (r *EventRecorder) Events() []Event { return r.events }

// TraceBytes returns the canonical encoding of the recorded stream.
// The slice aliases the recorder's storage; callers must not mutate
// it.
func (r *EventRecorder) TraceBytes() []byte { return r.trace }

// appendEventTrace appends e's canonical fixed-layout encoding:
// kind(1) cycle(8) overhead(8) delayed(1) binding(2×8), then the
// reason as a uvarint length prefix and raw bytes. Every field is
// encoded — the format has no freedom, so byte equality is event
// equality.
func appendEventTrace(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, e.Cycle)
	b = binary.LittleEndian.AppendUint64(b, e.Overhead)
	if e.Delayed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.ThreadOnCore[0])))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.ThreadOnCore[1])))
	b = binary.AppendUvarint(b, uint64(len(e.Reason)))
	return append(b, e.Reason...)
}

// emit publishes an event if an observer is installed. The nil check
// is the entire disabled-path cost.
//
//ampvet:hotpath
func (s *System) emit(e Event) {
	if s.obs == nil {
		return
	}
	e.ThreadOnCore = s.binding
	s.obs.Event(e)
}
