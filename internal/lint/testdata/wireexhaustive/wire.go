// Package fixture exercises dut/wireexhaustive: every FrameType
// constant needs an Append encoder, a validating decoder case in the
// frameReader's read method,
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
	FrameVoteBatch    FrameType = 3 // want "has no frameReader.read decoder case"
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

// frameReader is the package's one decoder.
type frameReader struct{ payload []byte }

// read decodes one frame; every covered case must validate.
func (fr *frameReader) read(t FrameType) error {
	switch t {
	case FrameHello:
		return checkHello(fr.payload)
	case FrameRoundBatch:
		return checkRoundBatch(fr.payload)
	case FrameVerdictBatch:
		return nil // no validation: flagged at the constant
	case FrameFinish:
		return checkFinish(fr.payload)
	case FrameBogus:
		return checkBogus(fr.payload)
	case FrameSpare:
		return checkSpare(fr.payload)
	}
	return nil
}

// ReadFrame is a fresh reader's read. Its own switch is not the
// decoder's, so its FrameVoteBatch case does not count.
func ReadFrame(t FrameType, payload []byte) error {
	fr := frameReader{payload: payload}
	switch t {
	case FrameVoteBatch:
		return checkSpare(payload)
	}
	return fr.read(t)
}

func checkHello(p []byte) error      { _ = p; return nil }
func checkRoundBatch(p []byte) error { _ = p; return nil }
func checkFinish(p []byte) error     { _ = p; return nil }
func checkBogus(p []byte) error      { _ = p; return nil }
func checkSpare(p []byte) error      { _ = p; return nil }
