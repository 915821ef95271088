// The adaptation decision log: every trigger, suppression, swap,
// rejection and rollback, in a canonical text form. The log is a
// deterministic function of (stream, schedule, config) — two seeded
// runs produce byte-identical output — so it doubles as a regression
// artifact.

package adapt

import (
	"bufio"
	"fmt"
	"io"
)

// Decision is one logged adaptation decision.
type Decision struct {
	// Window is the observation window the decision closed.
	Window uint64 `json:"window"`
	// What describes the decision (canonical formatting).
	What string `json:"what"`
}

// String renders the canonical log line.
func (d Decision) String() string {
	return fmt.Sprintf("window %d: %s", d.Window, d.What)
}

// WriteLog writes the decision log, one canonical line per decision.
func WriteLog(w io.Writer, log []Decision) error {
	bw := bufio.NewWriter(w)
	for _, d := range log {
		if _, err := fmt.Fprintln(bw, d.String()); err != nil {
			return fmt.Errorf("adapt: writing decision log: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("adapt: writing decision log: %w", err)
	}
	return nil
}
