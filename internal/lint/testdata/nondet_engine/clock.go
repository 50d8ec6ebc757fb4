package fixture

import "time"

// No engine file is blessed for wall-clock reads.
func StartStopwatch() time.Time {
	return time.Now() // want "wall-clock read (time.Now)"
}
