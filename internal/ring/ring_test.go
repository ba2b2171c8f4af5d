package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("session-%06d", i)
	}
	return out
}

func TestOwnerDeterministicAndOrderIndependent(t *testing.T) {
	a := New([]string{"http://a", "http://b", "http://c"}, 0)
	b := New([]string{"http://c", "http://a", "http://b", "http://a", ""}, 0)
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("Owner(%q) differs across member orderings: %q vs %q",
				k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestOwnerSpread(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := New(members, 0)
	counts := make(map[string]int)
	n := 3000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		// Virtual nodes keep the split within a loose band; a member
		// owning almost nothing (or almost everything) means the point
		// hashing is broken.
		if counts[m] < n/10 {
			t.Fatalf("member %s owns only %d/%d keys", m, counts[m], n)
		}
	}
}

func TestRemovalMovesOnlyTheRemovedMembersKeys(t *testing.T) {
	full := New([]string{"http://a", "http://b", "http://c", "http://d"}, 0)
	without := New([]string{"http://a", "http://b", "http://c"}, 0)
	for _, k := range keys(2000) {
		before := full.Owner(k)
		after := without.Owner(k)
		if before != "http://d" && after != before {
			t.Fatalf("key %q moved from %q to %q although its owner stayed in the ring",
				k, before, after)
		}
	}
}

func TestNextSkipsExcluded(t *testing.T) {
	r := New([]string{"http://a", "http://b", "http://c"}, 0)
	for _, k := range keys(500) {
		owner := r.Owner(k)
		next := r.Next(k, owner)
		if next == "" || next == owner {
			t.Fatalf("Next(%q, %q) = %q", k, owner, next)
		}
	}
}

func TestNextSingleMember(t *testing.T) {
	r := New([]string{"http://only"}, 0)
	if got := r.Next("k", "http://only"); got != "" {
		t.Fatalf("Next on one-member ring = %q, want \"\"", got)
	}
	if got := r.Next("k", "http://other"); got != "http://only" {
		t.Fatalf("Next excluding a non-member = %q, want the sole member", got)
	}
}

func TestNilAndEmptyRing(t *testing.T) {
	var nilRing *Ring
	if nilRing.Owner("k") != "" || nilRing.Next("k", "") != "" || nilRing.Len() != 0 {
		t.Fatal("nil ring must own nothing")
	}
	empty := New(nil, 0)
	if empty.Owner("k") != "" || empty.Len() != 0 {
		t.Fatal("empty ring must own nothing")
	}
}
