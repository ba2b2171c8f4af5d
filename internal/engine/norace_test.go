//go:build !race

package engine_test

import "time"

// largeBodyBudget is how long a request of more than 8 KiB refused on
// a limits bound may take: the slowest such refusal, a 70 KB edges
// body, takes ~1.4 ms on a 2-vCPU VM.
const largeBodyBudget = 10 * time.Millisecond
