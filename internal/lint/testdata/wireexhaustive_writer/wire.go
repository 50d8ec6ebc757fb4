// Package fixture exercises the writer half of dut/wireexhaustive: its
// one frame is fully covered, but the package has no writeCoalesced, so
// its frames have no validated way onto a connection.
package fixture

// FrameType tags a wire frame.
type FrameType uint8

const FrameHello FrameType = 1 // want "declares frames but no writeCoalesced"

func AppendHello(buf []byte) []byte { return append(buf, byte(FrameHello)) }

// ReadFrame decodes one frame.
func ReadFrame(t FrameType, payload []byte) error {
	switch t {
	case FrameHello:
		return checkHello(payload)
	}
	return nil
}

func checkHello(p []byte) error { _ = p; return nil }
