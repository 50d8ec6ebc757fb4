// Package fixture exercises dut/wireexhaustive: every FrameType
// constant needs an encoder, a validating ReadFrame decoder case, fuzz
// round-trip and malformed-input seeds, and a dut/framediscipline
// writer-set entry. FrameHello is fully covered; each other frame is
// missing exactly one piece.
package fixture

// FrameType tags a wire frame.
type FrameType uint8

const (
	FrameHello        FrameType = 1
	FrameRoundBatch   FrameType = 2 // want "has no encoder"
	FrameVoteBatch    FrameType = 3 // want "has no ReadFrame decoder case"
	FrameVerdictBatch FrameType = 4 // want "decoder case performs no validation"
	FrameFinish       FrameType = 5 // want "no FuzzFrame round-trip seed"
	FrameBogus        FrameType = 6 // want "missing from the dut/framediscipline writer set" "no malformed-input fuzz seed"
	FrameSpare        FrameType = 7 //lint:ignore dut/wireexhaustive fixture: the spare frame is decoder-only by design
)

func WriteHello(buf []byte) []byte        { return append(buf, byte(FrameHello)) }
func WriteVoteBatch(buf []byte) []byte    { return append(buf, byte(FrameVoteBatch)) }
func WriteVerdictBatch(buf []byte) []byte { return append(buf, byte(FrameVerdictBatch)) }
func WriteFinish(buf []byte) []byte       { return append(buf, byte(FrameFinish)) }
func WriteBogus(buf []byte) []byte        { return append(buf, byte(FrameBogus)) }

// ReadFrame decodes one frame; every covered case must validate.
func ReadFrame(t FrameType, payload []byte) error {
	switch t {
	case FrameHello:
		return checkHello(payload)
	case FrameRoundBatch:
		return checkRoundBatch(payload)
	case FrameVerdictBatch:
		return nil // no validation: flagged at the constant
	case FrameFinish:
		return checkFinish(payload)
	case FrameBogus:
		return checkBogus(payload)
	case FrameSpare:
		return checkSpare(payload)
	}
	return nil
}

func checkHello(p []byte) error      { _ = p; return nil }
func checkRoundBatch(p []byte) error { _ = p; return nil }
func checkFinish(p []byte) error     { _ = p; return nil }
func checkBogus(p []byte) error      { _ = p; return nil }
func checkSpare(p []byte) error      { _ = p; return nil }
