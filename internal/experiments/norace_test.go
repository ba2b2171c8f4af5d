//go:build !race

package experiments

import "time"

// refusalBudget is how long a request refused on a limits bound may
// take: far below any analysis of what the body declares.
const refusalBudget = 10 * time.Millisecond
