//go:build race

package engine_test

import "time"

// largeBodyBudget is how long a request of more than 8 KiB refused on
// a limits bound may take: the race detector slows decoding ~10-fold,
// and the 70 KB edges body takes ~15 ms to refuse on a 2-vCPU VM.
const largeBodyBudget = 100 * time.Millisecond
