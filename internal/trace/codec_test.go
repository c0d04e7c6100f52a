package trace_test

// Decoder robustness. Replay makes the decoder a parser of committed (and
// potentially hand-edited) artifacts, so it must hold two properties:
// malformed input of any shape errors — with a positioned DecodeError,
// never a panic — and input it does accept is canonical: encode→decode→
// encode is a fixed point. The table pins the specific error classes the
// format promises to catch (truncation, version skew, interleaving-
// invalid event orders); the fuzz target generalizes both properties to
// arbitrary bytes, with the seed corpus (plus testdata/fuzz/FuzzDecode)
// doubling as a regression suite under plain `go test`.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tmsync/internal/harness"
	"tmsync/internal/trace"
)

const validTrace = `tmtrace 1
source hand
seed 7
replay -threads 2

# comments and blank lines are fine anywhere
world threads=2 counters=2 bufcap=0 queue=1 stack=0 map=1 mapkeys=6 qcap=4 scap=0 mcap=8
ev 1 block
ev 0 begin
ev 0 write q 1
ev 0 commit
ev 1 wake
ev 1 begin
ev 1 read q
ev 1 commit
ev 0 begin
ev 0 write c 0 + 3
ev 0 commit
ev 1 begin
ev 1 write m 4 99
ev 1 commit
ev 1 begin
ev 1 del m 4
ev 1 commit
ev 0 begin
ev 0 read c 0
ev 0 read c 1
ev 0 write c 1 + 2
ev 0 commit
ev 0 abort conflict
ev 0 detach
ev 1 detach
end 25
`

var decodeErrorCases = []struct {
	name  string
	input string
	want  string // substring of the expected error
}{
	{"empty", "", "missing tmtrace header"},
	{"bad first line", "hello\n", "first line must be"},
	{"version mismatch", "tmtrace 2\nend 0\n", "unsupported trace version 2"},
	{"version junk", "tmtrace one\nend 0\n", "malformed version"},
	{"missing end", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\n", "truncated: missing"},
	{"end count mismatch", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 0 + 1\nev 0 commit\nend 7\n", "trailer says 7 events, log has 3"},
	{"event before world", "tmtrace 1\nev 0 begin\n", "event before the world declaration"},
	{"world missing field", "tmtrace 1\nworld threads=1 counters=1\n", "world line needs exactly"},
	{"world bad thread count", "tmtrace 1\nworld threads=65 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\n", "threads 65 out of range"},
	{"duplicate header", "tmtrace 1\nseed 1\nseed 2\n", "duplicate header line"},
	{"header after event", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 0 + 1\nev 0 commit\nseed 3\nend 3\n", "after the first event"},
	{"nested begin", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 begin\n", "nested begin"},
	{"commit without begin", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 commit\n", "commit without begin"},
	{"empty transaction", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 commit\n", "empty transaction"},
	{"read outside txn", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=1 stack=0 map=0 mapkeys=0 qcap=2 scap=0 mcap=0\nev 0 read q\n", "read outside a transaction"},
	{"runtime event inside txn", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 block\n", "runtime event inside a transaction"},
	{"open txn at end", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 0 + 1\nend 2\n", "ends inside an open transaction"},
	{"event after detach", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 detach\nev 0 begin\n", "event after thread 0 detached"},
	{"trailing content", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nend 0\nev 0 begin\n", "trailing content after"},
	// Traces carry no knob stamp: every run uses the one orec table.
	{"knobs header", "tmtrace 1\nknobs stripes=4\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nend 0\n", `unknown directive "knobs"`},
	{"unknown directive", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nbogus line here\n", "unknown directive"},
	{"unknown event kind", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 explode\n", "unknown event kind"},
	{"thread out of range", "tmtrace 1\nworld threads=2 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 2 begin\n", "out of range [0, 2)"},
	// Indices >= 2^63 wrap negative if converted to int before the range
	// check, sailing past it into a panicking slice index — the checks must
	// compare in uint64 space.
	{"thread index int64 overflow", "tmtrace 1\nworld threads=2 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 9223372036854775808 begin\n", "out of range [0, 2)"},
	{"counter index out of range", "tmtrace 1\nworld threads=1 counters=2 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 2 + 1\n", "counter index"},
	{"counter write index int64 overflow", "tmtrace 1\nworld threads=1 counters=4 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 9223372036854775808 + 1\n", "counter index"},
	{"counter read index int64 overflow", "tmtrace 1\nworld threads=1 counters=4 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 read c 9223372036854775808\n", "counter index"},
	{"zero counter delta", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write c 0 + 0\n", "must be a positive integer"},
	{"queue event without queue", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write q 1\n", "the world has no queue"},
	{"map event without map", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 begin\nev 0 write m 1 2\n", "the world has no map"},
	{"bad abort reason", "tmtrace 1\nworld threads=1 counters=1 bufcap=0 queue=0 stack=0 map=0 mapkeys=0 qcap=0 scap=0 mcap=0\nev 0 abort whatever\n", "abort takes one reason"},
}

func TestDecodeErrors(t *testing.T) {
	for _, c := range decodeErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := trace.Decode(strings.NewReader(c.input))
			if err == nil {
				t.Fatalf("decoded without error, want %q", c.want)
			}
			var de *trace.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestDecodeValidTrace(t *testing.T) {
	tr, err := trace.Decode(strings.NewReader(validTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Source != "hand" || tr.Seed != 7 || tr.Replay != "-threads 2" {
		t.Errorf("headers decoded wrong: %+v", tr)
	}
	if len(tr.Events) != 25 {
		t.Fatalf("got %d events, want 25", len(tr.Events))
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decode of canonical encoding: %v\n%s", err, buf.String())
	}
	var buf2 bytes.Buffer
	if err := trace.Encode(&buf2, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("encode→decode→encode is not a fixed point")
	}
	if _, err := harness.ReplayTrace(tr); err != nil {
		t.Errorf("valid hand trace failed scenario reconstruction: %v", err)
	}
}

// FuzzDecode: arbitrary bytes must either fail with a *DecodeError or
// decode into a trace whose canonical encoding round-trips; scenario
// reconstruction on accepted traces may reject semantically (that layer
// has its own cross-event rules) but must never panic. Seeds below plus
// testdata/fuzz/FuzzDecode run as regression cases under plain `go test`.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(validTrace))
	for _, c := range decodeErrorCases {
		f.Add([]byte(c.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			var de *trace.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error %v is not a *DecodeError", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		tr2, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding failed to re-decode: %v\n%s", err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := trace.Encode(&buf2, tr2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
		_, _ = harness.ReplayTrace(tr) // must not panic; errors are fine
	})
}
