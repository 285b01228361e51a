package pipeline

import "testing"

// TestFuPick: the earliest-free unit wins, the first of equal ones on a
// tie, and the issue cycle is the later of ready and that unit's free
// cycle.
func TestFuPick(t *testing.T) {
	for _, tc := range []struct {
		name    string
		units   []uint64
		ready   uint64
		unit    int
		issueAt uint64
	}{
		{"earliest free first", []uint64{3, 7, 9}, 0, 0, 3},
		{"earliest free middle", []uint64{7, 3, 9}, 0, 1, 3},
		{"earliest free last", []uint64{7, 9, 3}, 0, 2, 3},
		{"tie keeps first", []uint64{5, 2, 2, 2}, 0, 1, 2},
		{"all equal", []uint64{4, 4, 4}, 0, 0, 4},
		{"ready before every unit", []uint64{8, 6, 10}, 1, 1, 6},
		{"ready at the minimum", []uint64{8, 6, 10}, 6, 1, 6},
		{"ready between units", []uint64{8, 6, 10}, 9, 1, 9},
		{"ready after every unit", []uint64{8, 6, 10}, 50, 1, 50},
		{"single unit busy", []uint64{12}, 5, 0, 12},
		{"single unit free", []uint64{12}, 30, 0, 30},
	} {
		unit, issueAt := fuPick(tc.units, tc.ready)
		if unit != tc.unit || issueAt != tc.issueAt {
			t.Errorf("%s: fuPick(%v, %d) = %d, %d; want %d, %d",
				tc.name, tc.units, tc.ready, unit, issueAt, tc.unit, tc.issueAt)
		}
	}
}
