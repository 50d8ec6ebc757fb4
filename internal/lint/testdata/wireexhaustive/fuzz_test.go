// The fuzz corpus is read syntactically (test files sit outside the
// type-checked load): Append* calls inside a Fuzz function are
// round-trip seeds, raw f.Add byte literals are malformed seeds keyed
// by the type byte at header offset 3. FrameFinish deliberately has no
// round-trip seed and FrameBogus no malformed seed; WriteBogus is not a
// round-trip seed, only an Append call is.
package fixture

import "testing"

func FuzzFrame(f *testing.F) {
	var buf []byte
	buf = AppendHello(buf)
	buf = AppendRoundBatch(buf) // syntactic only: the encoder itself is missing from the package
	buf = AppendVoteBatch(buf)
	buf = AppendVerdictBatch(buf)
	buf = AppendBogus(buf) // syntactic only, as for AppendRoundBatch
	buf = AppendSpare(buf)
	f.Add(buf)
	f.Add([]byte{0xD0, 0x7A, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0x7A, 1, 2, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0x7A, 1, 3, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0x7A, 1, 4, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0x7A, 1, 5, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0x7A, 1, 7, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { _ = data })
}
