package population

import (
	"strings"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// TestCheckUnary runs CheckUnary on damaged read-backs of width-4 square
// populations. A row is written "prefix" when its result is right and
// "prefix!" when it is wrong; the wants list the prefixes CheckUnary keeps,
// every one with the right result.
func TestCheckUnary(t *testing.T) {
	tiling := "0xxx 10xx 110x 1110 1111"
	tests := []struct {
		name, read, want string
	}{
		{"intact", tiling, tiling},
		{"corrupted row rewritten", "0xxx 10xx! 110x 1110 1111", tiling},
		{"wrong ghost dropped", "0xxx 0101! 10xx 110x 1110 1111", tiling},
		{"right ghost kept", "0xxx 0101 10xx 110x 1110 1111", "0xxx 0101 10xx 110x 1110 1111"},
		{"interior gap filled", "0xxx 110x 1110 1111", tiling},
		{"edge gap left", "10xx 110x 1110 1111", "10xx 110x 1110 1111"},
		{"ghost in corrupted row", "0xxx 10xx! 1001! 110x 1110 1111", tiling},
		{"adjacent losses refilled", "0xxx 1110 1111", "0xxx 10xx 110x 1110 1111"},
		{"lost siblings merge", "0xxx 11xx", "0xxx 10xx 11xx"},
		{"catch-all recomputed", "xxxx! 10xx 11xx", "xxxx 10xx 11xx"},
		{"wrong row under the catch-all refilled", "xxxx 10xx 110x! 111x", "xxxx 10xx 110x 111x"},
		{"ghost beside the cover dropped", "xxxx 0010! 10xx 11xx", "xxxx 10xx 11xx"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var read []UnaryEntry
			for _, f := range strings.Fields(tc.read) {
				p, err := bitstr.Parse(strings.TrimSuffix(f, "!"))
				if err != nil {
					t.Fatal(err)
				}
				r := square(Midpoint.Pick(p))
				if strings.HasSuffix(f, "!") {
					r ^= 1 << 20
				}
				read = append(read, UnaryEntry{P: p, Result: r})
			}
			got := CheckUnary(read, square, Midpoint)
			want := strings.Fields(tc.want)
			if len(got) != len(want) {
				t.Fatalf("got %v, want %s", got, tc.want)
			}
			for i, e := range got {
				if e.P.String() != want[i] || e.Result != square(Midpoint.Pick(e.P)) {
					t.Fatalf("row %d = %v/%d, want %s with its own result", i, e.P, e.Result, want[i])
				}
			}
		})
	}
}
