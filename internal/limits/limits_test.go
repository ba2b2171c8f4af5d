package limits

import (
	"errors"
	"math"
	"testing"
)

// TestCheck pins the one check's contract: the bounds of the range are
// in it, one past either is refused with the established message, and
// every value type the decoders hold reports its value as read.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{Check(Cores, 1), ""},
		{Check(Cores, 64), ""},
		{Check(Cores, 65), "invalid cores: 65 (must be in [1, 64])"},
		{Check(Cores, 0), "invalid cores: 0 (must be in [1, 64])"},
		{Check(Nodes, uint64(math.MaxUint64)), "invalid nodes: 18446744073709551615 (must be in [0, 1024])"},
		{Check(Duration, int64(math.MinInt64)), "invalid duration: -9223372036854775808 (must be in [1, 100000000])"},
		{Check(Utilization, 1024.0), ""},
		{Check(Utilization, 1024.5), "invalid utilization: 1024.5 (must be in [0, 1024])"},
		{Check(Utilization, math.NaN()), "invalid utilization: NaN (must be in [0, 1024])"},
	} {
		got := ""
		if tc.err != nil {
			got = tc.err.Error()
			var e *Error
			if !errors.As(tc.err, &e) {
				t.Errorf("%v is not a *Error", tc.err)
			}
		}
		if got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}
