// Package fixture exercises the writer half of dut/wireexhaustive: its
// one frame is fully covered, but the package has no writeCoalesced, so
// its frames have no validated way onto a connection.
package fixture

// FrameType tags a wire frame.
type FrameType uint8

const FrameHello FrameType = 1 // want "declares frames but no writeCoalesced"

func AppendHello(buf []byte) []byte { return append(buf, byte(FrameHello)) }

// frameReader is the package's one decoder.
type frameReader struct{ payload []byte }

// read decodes one frame.
func (fr *frameReader) read(t FrameType) error {
	switch t {
	case FrameHello:
		return checkHello(fr.payload)
	}
	return nil
}

func checkHello(p []byte) error { _ = p; return nil }
