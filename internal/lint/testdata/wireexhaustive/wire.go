// Package fixture exercises dut/wireexhaustive: every FrameType
// constant needs an Append encoder, a validating ReadFrame decoder case,
// and fuzz round-trip and malformed-input seeds, and the package's
// frames must leave through writeCoalesced. FrameHello is fully
// covered; each other frame is missing exactly one piece, except
// FrameBogus, whose Write-form encoder no longer counts.
package fixture

import "io"

// FrameType tags a wire frame.
type FrameType uint8

const (
	FrameHello        FrameType = 1
	FrameRoundBatch   FrameType = 2 // want "has no encoder"
	FrameVoteBatch    FrameType = 3 // want "has no ReadFrame decoder case"
	FrameVerdictBatch FrameType = 4 // want "decoder case performs no validation"
	FrameFinish       FrameType = 5 // want "no FuzzFrame round-trip seed"
	FrameBogus        FrameType = 6 // want "has no encoder: want AppendBogus" "no malformed-input fuzz seed"
	FrameSpare        FrameType = 7 //lint:ignore dut/wireexhaustive fixture: the spare frame is decoder-only by design
)

func AppendHello(buf []byte) []byte        { return append(buf, byte(FrameHello)) }
func AppendVoteBatch(buf []byte) []byte    { return append(buf, byte(FrameVoteBatch)) }
func AppendVerdictBatch(buf []byte) []byte { return append(buf, byte(FrameVerdictBatch)) }
func AppendFinish(buf []byte) []byte       { return append(buf, byte(FrameFinish)) }
func WriteBogus(buf []byte) []byte         { return append(buf, byte(FrameBogus)) }

// writeCoalesced is the one frame writer.
func writeCoalesced(w io.Writer, run []byte) error {
	_, err := w.Write(run)
	return err
}

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
