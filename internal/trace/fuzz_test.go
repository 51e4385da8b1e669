package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

const header = "VCOMATR\x01"

// FuzzTraceReader decodes arbitrary .vct bytes. A recorded trace is
// untrusted input, so the reader must never panic; every event it yields
// must re-record to exactly the bytes it was read from; and it must stop
// with a decode error at the first record it cannot represent — an unknown
// kind, a truncated or non-minimal varint, or a payload outside the Event
// word's range — and at no other point.
//
// Run natively:  go test -run=^$ -fuzz=FuzzTraceReader ./internal/trace/
func FuzzTraceReader(f *testing.F) {
	f.Add(radixTrace(f))
	for _, rec := range [][]byte{
		rawRecord(byte(trace.Read), trace.MaxPayload),
		rawRecord(byte(trace.Read), trace.MaxPayload+1),
		rawRecord(byte(trace.Compute), trace.MaxPayload+1),
		rawRecord(byte(trace.LockAcquire), trace.MaxID),
		rawRecord(byte(trace.LockRelease), trace.MaxID+1),
		rawRecord(byte(trace.Barrier), uint64(minID)),
		rawRecord(byte(trace.Barrier), uint64(minID-1)),
		rawRecord(byte(trace.Write), ^uint64(0)),
		{byte(trace.Read), 0x80, 0x00},
		{byte(trace.Barrier) + 1, 0},
	} {
		f.Add(append([]byte(header), rec...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		events := trace.Drain(rd)

		var again bytes.Buffer
		if _, err := trace.Record(&again, trace.NewSliceStream(events)); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("%d decoded events re-record to bytes that are not a prefix of the input", len(events))
		}

		bad, records := firstBadRecord(data[len(header):])
		switch {
		case bad < 0 && (rd.Err() != nil || len(events) != records):
			t.Fatalf("valid trace of %d records: decoded %d, err %v", records, len(events), rd.Err())
		case bad >= 0 && (rd.Err() == nil || len(events) != bad):
			t.Fatalf("record %d is invalid: decoded %d events, err %v", bad, len(events), rd.Err())
		case rd.Err() == nil && again.Len() != len(data):
			t.Fatalf("clean end after %d of %d bytes", again.Len(), len(data))
		}
	})
}

// minID is trace.MinID as a variable, so its out-of-range neighbour can be
// converted to a payload.
var minID int64 = trace.MinID

func rawRecord(kind byte, payload uint64) []byte {
	return binary.AppendUvarint([]byte{kind}, payload)
}

// firstBadRecord walks body record by record, independently of
// trace.Reader, and returns the index of the first record the Event word
// cannot represent (-1 if none) and the number of records before it.
func firstBadRecord(body []byte) (bad, records int) {
	for i := 0; len(body) > 0; i++ {
		kind := trace.Kind(body[0])
		payload, n := binary.Uvarint(body[1:])
		if n <= 0 || (n > 1 && body[n] == 0) { // truncated, overflowing, or non-minimal
			return i, i
		}
		switch kind {
		case trace.Read, trace.Write, trace.Compute:
			if payload > trace.MaxPayload {
				return i, i
			}
		case trace.LockAcquire, trace.LockRelease, trace.Barrier:
			if id := int64(payload); id < trace.MinID || id > trace.MaxID {
				return i, i
			}
		default:
			return i, i
		}
		body = body[1+n:]
		records = i + 1
	}
	return -1, records
}

// radixTrace records the first radixSeedEvents events of processor 0 of
// RADIX at test scale, the head of the stream a `vcoma-sim -record` trace
// directory holds in proc000.vct: a barrier, then reads, writes and compute
// delays. A longer head (the whole stream is 14,631 events, 50 KB; even
// 1,024 events is 3.5 KB) stalls the fuzzer's minimiser for seconds on
// every new input derived from it.
func radixTrace(f *testing.F) []byte {
	b, err := workload.ByName("RADIX", workload.ScaleTest)
	if err != nil {
		f.Fatal(err)
	}
	g := config.SmallTest().Geometry
	prog, err := b.Build(g, g.Nodes())
	if err != nil {
		f.Fatal(err)
	}
	streams := prog.Streams()
	defer func() {
		for _, s := range streams {
			trace.CloseStream(s)
		}
	}()
	head := make([]trace.Event, 0, radixSeedEvents)
	for len(head) < radixSeedEvents {
		ev, ok := streams[0].Next()
		if !ok {
			break
		}
		head = append(head, ev)
	}
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, trace.NewSliceStream(head)); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

const radixSeedEvents = 256
