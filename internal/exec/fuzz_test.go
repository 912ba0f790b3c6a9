package exec

import (
	"bytes"
	"runtime"
	"testing"
)

// allocBound is what decoding n bytes may allocate: the decoded forms are
// larger than their encodings by a constant factor (a one-byte null becomes
// a 72-byte types.Value, inside a record inside a row), never by a factor a
// length field names. The slack covers the read buffer and the runtime.
func allocBound(n int) uint64 { return 256*uint64(n) + 1<<20 }

// FuzzDecodePartialStream throws bytes at the frame decoder — the first
// thing a coordinator does with what a peer sent. It must return a partial
// or an error: never panic, hang, or allocate beyond allocBound. A frame it
// accepts must re-encode and decode to the same number of units.
func FuzzDecodePartialStream(f *testing.F) {
	valid, _ := sampleFrames(f, newTestCatalog(f))
	for _, frame := range append(valid, hostileFrames(valid)...) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodePartialStream(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.EncodeStream(&buf); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		again, err := DecodePartialStream(&buf)
		if err != nil || again.Units() != p.Units() || again.Shape != p.Shape {
			t.Fatalf("re-encoded frame: %v", err)
		}
	})
}

// FuzzMergeStateMerge feeds whatever the decoder accepts to the merge state
// of each sample plan in turn: shape-, column-, width-, kind- and
// fingerprint-lying frames must be refused with an error, and a frame that
// is merged must leave a state that still materializes.
func FuzzMergeStateMerge(f *testing.F) {
	c := newTestCatalog(f)
	valid, plans := sampleFrames(f, c)
	for i, frame := range valid {
		f.Add(frame, uint8(i))
		f.Add(frame, uint8(i+1))
	}
	for _, frame := range hostileFrames(valid) {
		f.Add(frame, uint8(len(frame)))
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		p, err := DecodePartialStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		ms, err := CompileMergeState(plans[int(which)%len(plans)], c.env4(VecAuto, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // twice: a frame must also merge with itself
			if err := ms.Merge(p); err != nil {
				return
			}
		}
		if _, err := ms.Result(); err != nil {
			t.Fatalf("merged state does not materialize: %v", err)
		}
	})
}
