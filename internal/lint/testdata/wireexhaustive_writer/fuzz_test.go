package fixture

import "testing"

func FuzzFrame(f *testing.F) {
	f.Add(AppendHello(nil))
	f.Add([]byte{0xD0, 0x7A, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { _ = data })
}
