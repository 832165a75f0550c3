package cli

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"stacktrack/internal/cost"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",,,", nil},
		{"E1a", []string{"E1a"}},
		{"E1a,E2b", []string{"E1a", "E2b"}},
		{" E1a , E2b ,", []string{"E1a", "E2b"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("1, 2,4,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Fatalf("ParseIntList: got %v, %v", got, err)
	}
	if got, err := ParseIntList(""); err != nil || got != nil {
		t.Fatalf("empty list: got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "two", "1,2,x"} {
		if _, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) did not fail", bad)
		}
	}
}

func TestVirtualMs(t *testing.T) {
	cases := []struct {
		ms   float64
		want cost.Cycles
		ok   bool
	}{
		{0, 0, true},
		{1, cost.FromSeconds(0.001), true},
		{20, cost.FromSeconds(0.020), true},
		{-5, 0, false},
		{-1, 0, false},
		{math.Copysign(0, -1), 0, true},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{1e300, 0, false},
	}
	for _, c := range cases {
		got, err := VirtualMs("measure-ms", c.ms)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("VirtualMs(%v) = %d, %v; want %d", c.ms, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("VirtualMs(%v) = %d, want an error", c.ms, got)
		} else if !strings.Contains(err.Error(), "-measure-ms") {
			t.Errorf("VirtualMs(%v) error %q does not name the flag", c.ms, err)
		}
	}
}
