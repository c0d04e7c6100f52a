package trace

// The wire codec. Traces are line-oriented text so committed fixtures
// stay reviewable: a versioned header, one event per line, and an
// `end <count>` trailer whose absence (or wrong count) flags truncation.
// Decode is strict — unknown kinds, malformed operands, out-of-range
// indices, and order-invalid event sequences (a read outside a
// transaction, a nested begin, anything after a detach) are errors, never
// panics and never events that would replay silently as something else.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Decode limits. A trace is a test artifact, not a bulk format; bounding
// the geometry and event count keeps a hostile or fuzzer-built input from
// turning the decoder (or a later replay) into a resource sink.
const (
	MaxThreads  = 64
	MaxCounters = 4096
	MaxEvents   = 1 << 20
	maxCap      = 1 << 20
)

// DecodeError describes why an input is not a valid trace.
type DecodeError struct {
	Line int // 1-based input line, 0 when the problem is global (e.g. truncation)
	Msg  string
}

func (e *DecodeError) Error() string {
	if e.Line == 0 {
		return "trace: " + e.Msg
	}
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &DecodeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Encode writes tr in canonical text form.
func Encode(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "tmtrace %d\n", tr.Version)
	if tr.Source != "" {
		fmt.Fprintf(bw, "source %s\n", tr.Source)
	}
	if tr.Seed != 0 {
		fmt.Fprintf(bw, "seed %d\n", tr.Seed)
	}
	if tr.Replay != "" {
		fmt.Fprintf(bw, "replay %s\n", tr.Replay)
	}
	wd := tr.World
	fmt.Fprintf(bw, "world threads=%d counters=%d bufcap=%d queue=%d stack=%d map=%d mapkeys=%d qcap=%d scap=%d mcap=%d\n",
		wd.Threads, wd.Counters, wd.BufCap, b2i(wd.HasQueue), b2i(wd.HasStack), b2i(wd.HasMap), wd.MapKeys, wd.QueueCap, wd.StackCap, wd.MapCap)
	for i := range tr.Events {
		ev := &tr.Events[i]
		line, err := formatEvent(ev)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		fmt.Fprintln(bw, line)
	}
	fmt.Fprintf(bw, "end %d\n", len(tr.Events))
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func formatEvent(ev *Event) (string, error) {
	p := fmt.Sprintf("ev %d %s", ev.Thread, ev.Kind)
	switch ev.Kind {
	case Begin, Commit, Block, Wake, Detach:
		return p, nil
	case Abort:
		return p + " " + ev.Arg, nil
	case Read:
		if ev.Obj == Counter {
			return fmt.Sprintf("%s c %d", p, ev.K), nil
		}
		return p + " " + ev.Obj.String(), nil
	case Write:
		switch ev.Obj {
		case Counter:
			sign := "+"
			if ev.Neg {
				sign = "-"
			}
			return fmt.Sprintf("%s c %d %s %d", p, ev.K, sign, ev.V), nil
		case Buf, Queue, Stack:
			return fmt.Sprintf("%s %s %d", p, ev.Obj, ev.V), nil
		case Map:
			return fmt.Sprintf("%s m %d %d", p, ev.K, ev.V), nil
		}
	case Del:
		if ev.Obj == Map {
			return fmt.Sprintf("%s m %d", p, ev.K), nil
		}
	}
	return "", fmt.Errorf("unencodable event %s/%s", ev.Kind, ev.Obj)
}

// Decode parses one trace from r, validating syntax, geometry bounds, and
// per-thread event order. It returns a *DecodeError (wrapped positions
// included) for any malformed input and never panics.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	tr := &Trace{}
	st := &decodeState{tr: tr}
	for sc.Scan() {
		st.lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue // blank lines and comments keep fixtures readable
		}
		if err := st.line(line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, errf(st.lineNo, "read: %v", err)
	}
	if !st.sawVersion {
		return nil, errf(0, "empty input: missing tmtrace header")
	}
	if !st.sawEnd {
		return nil, errf(0, "truncated: missing `end %d` trailer", len(tr.Events))
	}
	return tr, nil
}

type decodeState struct {
	tr         *Trace
	lineNo     int
	sawVersion bool
	sawWorld   bool
	sawEnd     bool
	seen       map[string]bool // header keys already consumed

	inTxn    []bool // per-thread: inside begin..commit
	txnOps   []int  // per-thread: payload events in the open transaction
	detached []bool
}

func (st *decodeState) line(line string) error {
	f := strings.Fields(line)
	key := f[0]
	if !st.sawVersion {
		if key != "tmtrace" {
			return errf(st.lineNo, "first line must be `tmtrace %d`, got %q", Version, key)
		}
		if len(f) != 2 {
			return errf(st.lineNo, "malformed version line")
		}
		v, err := parseUint(f[1])
		if err != nil {
			return errf(st.lineNo, "malformed version %q", f[1])
		}
		if v != Version {
			return errf(st.lineNo, "unsupported trace version %d (this build reads version %d)", v, Version)
		}
		st.tr.Version = int(v)
		st.sawVersion = true
		return nil
	}
	if st.sawEnd {
		return errf(st.lineNo, "trailing content after `end` trailer")
	}
	switch key {
	case "source", "seed", "replay", "world":
		if len(st.tr.Events) > 0 {
			return errf(st.lineNo, "header line %q after the first event", key)
		}
		if st.seen == nil {
			st.seen = map[string]bool{}
		}
		if st.seen[key] {
			return errf(st.lineNo, "duplicate header line %q", key)
		}
		st.seen[key] = true
		return st.header(key, f, line)
	case "ev":
		if !st.sawWorld {
			return errf(st.lineNo, "event before the world declaration")
		}
		if len(st.tr.Events) >= MaxEvents {
			return errf(st.lineNo, "too many events (max %d)", MaxEvents)
		}
		return st.event(f)
	case "end":
		if !st.sawWorld {
			return errf(st.lineNo, "end trailer before the world declaration")
		}
		if len(f) != 2 {
			return errf(st.lineNo, "malformed end trailer")
		}
		n, err := parseUint(f[1])
		if err != nil {
			return errf(st.lineNo, "malformed end count %q", f[1])
		}
		if n != uint64(len(st.tr.Events)) {
			return errf(st.lineNo, "truncated or corrupt: trailer says %d events, log has %d", n, len(st.tr.Events))
		}
		for t, open := range st.inTxn {
			if open {
				return errf(st.lineNo, "thread %d ends inside an open transaction", t)
			}
		}
		st.sawEnd = true
		return nil
	}
	return errf(st.lineNo, "unknown directive %q", key)
}

func (st *decodeState) header(key string, f []string, line string) error {
	switch key {
	case "source":
		if len(f) != 2 {
			return errf(st.lineNo, "malformed source line")
		}
		st.tr.Source = f[1]
	case "seed":
		if len(f) != 2 {
			return errf(st.lineNo, "malformed seed line")
		}
		v, err := parseUint(f[1])
		if err != nil {
			return errf(st.lineNo, "malformed seed %q", f[1])
		}
		st.tr.Seed = v
	case "replay":
		st.tr.Replay = strings.TrimSpace(strings.TrimPrefix(line, "replay"))
	case "world":
		return st.world(f)
	}
	return nil
}

var worldFields = []string{"threads", "counters", "bufcap", "queue", "stack", "map", "mapkeys", "qcap", "scap", "mcap"}

func (st *decodeState) world(f []string) error {
	if len(f) != 1+len(worldFields) {
		return errf(st.lineNo, "world line needs exactly the fields %s", strings.Join(worldFields, ", "))
	}
	vals := make([]uint64, len(worldFields))
	for i, name := range worldFields {
		kv := strings.SplitN(f[i+1], "=", 2)
		if len(kv) != 2 || kv[0] != name {
			return errf(st.lineNo, "world field %d must be %s=<n>, got %q", i+1, name, f[i+1])
		}
		v, err := parseUint(kv[1])
		if err != nil {
			return errf(st.lineNo, "malformed world field %q", f[i+1])
		}
		vals[i] = v
	}
	w := World{
		Threads: int(vals[0]), Counters: int(vals[1]), BufCap: int(vals[2]),
		HasQueue: vals[3] != 0, HasStack: vals[4] != 0, HasMap: vals[5] != 0,
		MapKeys: int(vals[6]), QueueCap: int(vals[7]), StackCap: int(vals[8]), MapCap: int(vals[9]),
	}
	for i, name := range []string{"queue", "stack", "map"} {
		if vals[3+i] > 1 {
			return errf(st.lineNo, "world field %s must be 0 or 1", name)
		}
	}
	if w.Threads < 1 || w.Threads > MaxThreads {
		return errf(st.lineNo, "threads %d out of range [1, %d]", w.Threads, MaxThreads)
	}
	if w.Counters < 0 || w.Counters > MaxCounters {
		return errf(st.lineNo, "counters %d out of range [0, %d]", w.Counters, MaxCounters)
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{{"bufcap", vals[2]}, {"mapkeys", vals[6]}, {"qcap", vals[7]}, {"scap", vals[8]}, {"mcap", vals[9]}} {
		if c.v > maxCap {
			return errf(st.lineNo, "%s %d out of range [0, %d]", c.name, c.v, maxCap)
		}
	}
	st.tr.World = w
	st.sawWorld = true
	st.inTxn = make([]bool, w.Threads)
	st.txnOps = make([]int, w.Threads)
	st.detached = make([]bool, w.Threads)
	return nil
}

func (st *decodeState) event(f []string) error {
	if len(f) < 3 {
		return errf(st.lineNo, "malformed event line")
	}
	tv, err := parseUint(f[1])
	// Compare in uint64 space: converting first would let indices >= 2^63
	// wrap negative and slip past the range check into a slice index.
	if err != nil || tv >= uint64(st.tr.World.Threads) {
		return errf(st.lineNo, "thread %q out of range [0, %d)", f[1], st.tr.World.Threads)
	}
	t := int(tv)
	if st.detached[t] {
		return errf(st.lineNo, "event after thread %d detached", t)
	}
	ev := Event{Thread: t}
	args := f[3:]
	switch f[2] {
	case "begin":
		if st.inTxn[t] {
			return errf(st.lineNo, "nested begin on thread %d", t)
		}
		if len(args) != 0 {
			return errf(st.lineNo, "begin takes no operands")
		}
		ev.Kind = Begin
		st.inTxn[t] = true
		st.txnOps[t] = 0
	case "commit":
		if !st.inTxn[t] {
			return errf(st.lineNo, "commit without begin on thread %d", t)
		}
		if st.txnOps[t] == 0 {
			return errf(st.lineNo, "empty transaction on thread %d", t)
		}
		if len(args) != 0 {
			return errf(st.lineNo, "commit takes no operands")
		}
		ev.Kind = Commit
		st.inTxn[t] = false
	case "read":
		if !st.inTxn[t] {
			return errf(st.lineNo, "read outside a transaction on thread %d", t)
		}
		ev.Kind = Read
		if err := st.readOperands(&ev, args); err != nil {
			return err
		}
		st.txnOps[t]++
	case "write":
		if !st.inTxn[t] {
			return errf(st.lineNo, "write outside a transaction on thread %d", t)
		}
		ev.Kind = Write
		if err := st.writeOperands(&ev, args); err != nil {
			return err
		}
		st.txnOps[t]++
	case "del":
		if !st.inTxn[t] {
			return errf(st.lineNo, "del outside a transaction on thread %d", t)
		}
		if len(args) != 2 || args[0] != "m" {
			return errf(st.lineNo, "del takes `m <key>`")
		}
		k, err := parseUint(args[1])
		if err != nil {
			return errf(st.lineNo, "malformed map key %q", args[1])
		}
		if !st.tr.World.HasMap {
			return errf(st.lineNo, "map event but the world has no map")
		}
		ev.Kind, ev.Obj, ev.K = Del, Map, k
		st.txnOps[t]++
	case "abort":
		if st.inTxn[t] {
			return errf(st.lineNo, "runtime event inside a transaction on thread %d", t)
		}
		if len(args) != 1 || !validAbortArg(args[0]) {
			return errf(st.lineNo, "abort takes one reason (conflict, capacity, spurious, explicit, restart)")
		}
		ev.Kind, ev.Arg = Abort, args[0]
	case "block", "wake":
		if st.inTxn[t] {
			return errf(st.lineNo, "runtime event inside a transaction on thread %d", t)
		}
		if len(args) != 0 {
			return errf(st.lineNo, "%s takes no operands", f[2])
		}
		if f[2] == "block" {
			ev.Kind = Block
		} else {
			ev.Kind = Wake
		}
	case "detach":
		if st.inTxn[t] {
			return errf(st.lineNo, "detach inside a transaction on thread %d", t)
		}
		if len(args) != 0 {
			return errf(st.lineNo, "detach takes no operands")
		}
		ev.Kind = Detach
		st.detached[t] = true
	default:
		return errf(st.lineNo, "unknown event kind %q", f[2])
	}
	st.tr.Events = append(st.tr.Events, ev)
	return nil
}

func (st *decodeState) readOperands(ev *Event, args []string) error {
	if len(args) == 0 {
		return errf(st.lineNo, "read needs an object")
	}
	switch args[0] {
	case "c":
		if len(args) != 2 {
			return errf(st.lineNo, "read c takes `<index>`")
		}
		idx, err := parseUint(args[1])
		if err != nil || idx >= uint64(st.tr.World.Counters) {
			return errf(st.lineNo, "counter index %q out of range [0, %d)", args[1], st.tr.World.Counters)
		}
		ev.Obj, ev.K = Counter, idx
		return nil
	case "buf", "q", "s":
		if len(args) != 1 {
			return errf(st.lineNo, "read %s takes no operands", args[0])
		}
		return st.structObj(ev, args[0])
	}
	return errf(st.lineNo, "unknown read object %q", args[0])
}

func (st *decodeState) writeOperands(ev *Event, args []string) error {
	if len(args) == 0 {
		return errf(st.lineNo, "write needs an object")
	}
	switch args[0] {
	case "c":
		if len(args) != 4 || (args[2] != "+" && args[2] != "-") {
			return errf(st.lineNo, "write c takes `<index> +|- <delta>`")
		}
		idx, err := parseUint(args[1])
		if err != nil || idx >= uint64(st.tr.World.Counters) {
			return errf(st.lineNo, "counter index %q out of range [0, %d)", args[1], st.tr.World.Counters)
		}
		d, err := parseUint(args[3])
		if err != nil || d == 0 {
			return errf(st.lineNo, "counter delta %q must be a positive integer", args[3])
		}
		ev.Obj, ev.K, ev.V, ev.Neg = Counter, idx, d, args[2] == "-"
		return nil
	case "buf", "q", "s":
		if len(args) != 2 {
			return errf(st.lineNo, "write %s takes `<value>`", args[0])
		}
		v, err := parseUint(args[1])
		if err != nil {
			return errf(st.lineNo, "malformed value %q", args[1])
		}
		ev.V = v
		return st.structObj(ev, args[0])
	case "m":
		if len(args) != 3 {
			return errf(st.lineNo, "write m takes `<key> <value>`")
		}
		k, err := parseUint(args[1])
		if err != nil {
			return errf(st.lineNo, "malformed map key %q", args[1])
		}
		v, err := parseUint(args[2])
		if err != nil {
			return errf(st.lineNo, "malformed map value %q", args[2])
		}
		if !st.tr.World.HasMap {
			return errf(st.lineNo, "map event but the world has no map")
		}
		ev.Obj, ev.K, ev.V = Map, k, v
		return nil
	}
	return errf(st.lineNo, "unknown write object %q", args[0])
}

func (st *decodeState) structObj(ev *Event, name string) error {
	w := &st.tr.World
	switch name {
	case "buf":
		if w.BufCap == 0 {
			return errf(st.lineNo, "buffer event but the world has no buffer")
		}
		ev.Obj = Buf
	case "q":
		if !w.HasQueue {
			return errf(st.lineNo, "queue event but the world has no queue")
		}
		ev.Obj = Queue
	case "s":
		if !w.HasStack {
			return errf(st.lineNo, "stack event but the world has no stack")
		}
		ev.Obj = Stack
	}
	return nil
}

func validAbortArg(s string) bool {
	switch s {
	case "conflict", "capacity", "spurious", "explicit", "restart":
		return true
	}
	return false
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(s, 10, 64)
}
