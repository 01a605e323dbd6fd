package cli

import (
	"fmt"
	"time"
)

// Flag validation shared by mmtsim/mmtbench/mmtserved/mmtload. The
// underlying layers tolerate some nonsense values in surprising ways (a
// negative -timeout times every job out instantly), so the commands
// reject them up front with a clear message instead.

// validateTimeout rejects negative wall-clock timeouts (0 disables).
func validateTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-timeout must be >= 0 (0 disables the timeout), got %s", d)
	}
	return nil
}

// validateRetries rejects negative retry budgets (0 means no retries).
func validateRetries(n int) error {
	if n < 0 {
		return fmt.Errorf("-retries must be >= 0 (0 disables retries), got %d", n)
	}
	return nil
}
