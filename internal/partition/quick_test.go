package partition

import (
	"testing"
	"testing/quick"
)

func TestQuickAllPartitionsValid(t *testing.T) {
	f := func(raw uint8) bool {
		m := int(raw%20) + 1
		for _, p := range All(m) {
			if p.Sum() != m {
				return false
			}
			for i := 1; i < len(p); i++ {
				if p[i] > p[i-1] {
					return false // must be non-increasing
				}
			}
			for _, part := range p {
				if part < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllDistinct(t *testing.T) {
	f := func(raw uint8) bool {
		m := int(raw%18) + 1
		seen := map[string]bool{}
		for _, p := range All(m) {
			key := p.String()
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesEnumeration(t *testing.T) {
	f := func(raw uint8) bool {
		m := int(raw % 26) // 0..25
		return Count(m) == int64(len(All(m)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
