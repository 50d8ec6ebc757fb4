package fixture

import "net"

func writeCoalesced(c net.Conn, run []byte) error {
	_, err := c.Write(run) // the encoder file owns the raw write: clean
	return err
}
