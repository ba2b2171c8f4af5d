//go:build race

package experiments

import "time"

// refusalBudget is how long a request refused on a limits bound may
// take: the race detector slows decoding ~25-fold, and the 200 KB
// analyze body takes ~40 ms to refuse on a 2-vCPU VM.
const refusalBudget = 200 * time.Millisecond
