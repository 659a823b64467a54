package core

import (
	"strconv"
	"strings"
	"testing"

	"zpre/internal/sat"
)

// splitParseName is the strings.Split parser ParseName replaced, kept as
// the oracle for FuzzParseName.
func splitParseName(name string) VarInfo {
	vi := VarInfo{Name: name, Class: ClassSSA}
	switch {
	case strings.HasPrefix(name, "rf_"), strings.HasPrefix(name, "ws_"):
		parts := strings.Split(name, "_")
		if len(parts) != 5 {
			return vi
		}
		nums := make([]int, 4)
		for i := 0; i < 4; i++ {
			n, err := strconv.Atoi(parts[i+1])
			if err != nil {
				return vi
			}
			nums[i] = n
		}
		vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = nums[0], nums[1], nums[2], nums[3]
		switch {
		case strings.HasPrefix(name, "ws_"):
			vi.Class = ClassWS
		case vi.ReadThread == vi.WriteThread:
			vi.Class = ClassRFInternal
		default:
			vi.Class = ClassRFExternal
		}
	case strings.HasPrefix(name, "ord_"):
		vi.Class = ClassOrd
	case strings.HasPrefix(name, "guard_"):
		vi.Class = ClassGuard
	}
	return vi
}

// FuzzParseName checks the in-place parser against the split oracle on
// arbitrary names, malformed coordinates included.
func FuzzParseName(f *testing.F) {
	for _, seed := range []string{
		"rf_1_2_3_4", "rf_1_3_1_7", "ws_0_1_2_3", "ord_t0_1_t1_2", "guard_1_2", "v1_3_x.5",
		"rf_1_2_3", "rf_1_2_3_4_5", "rf_1__3_4", "ws_a_1_2_3", "rf_", "ws_1_2_3_",
		"rf_-1_+2_003_4", "rf_99999999999999999999_0_0_0", "rf_1_2_3_4\x00", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := ParseName(name), splitParseName(name); got != want {
			t.Fatalf("ParseName(%q) = %+v, split oracle %+v", name, got, want)
		}
	})
}

func TestRFWSNamesRoundTrip(t *testing.T) {
	for _, c := range [][4]int{{0, 0, 0, 0}, {1, 3, 2, 7}, {2, 10, 2, 11}, {12, 345, 6789, 1}} {
		rf := RFName(c[0], c[1], c[2], c[3])
		if want := "rf_" + strconv.Itoa(c[0]) + "_" + strconv.Itoa(c[1]) + "_" + strconv.Itoa(c[2]) + "_" + strconv.Itoa(c[3]); rf != want {
			t.Errorf("RFName%v = %q, want %q", c, rf, want)
		}
		vi := ParseName(rf)
		if !vi.Class.Interference() || vi.Class == ClassWS ||
			vi.ReadThread != c[0] || vi.ReadIdx != c[1] || vi.WriteThread != c[2] || vi.WriteIdx != c[3] {
			t.Errorf("ParseName(%q) = %+v", rf, vi)
		}
		ws := WSName(c[0], c[1], c[2], c[3])
		if ws != "ws"+rf[2:] {
			t.Errorf("WSName%v = %q", c, ws)
		}
		if vi := ParseName(ws); vi.Class != ClassWS || vi.ReadIdx != c[1] || vi.WriteIdx != c[3] {
			t.Errorf("ParseName(%q) = %+v", ws, vi)
		}
	}
}

// TestClassifyNamesMatchesClassify checks that the table walk and the map
// adapter agree, gaps and ordering atoms included.
func TestClassifyNamesMatchesClassify(t *testing.T) {
	names := []string{"", "rf_1_0_2_0", "", "rf_1_0_0_0", "ws_0_0_2_0", "guard_1_1", "v1_0_x.0", "", "rf_2_1_1_3"}
	named := map[string]sat.Var{}
	for v, name := range names {
		if name != "" {
			named[name] = sat.Var(v)
		}
	}
	got, want := ClassifyNames(names), Classify(named)
	if len(got) != len(want) || len(got) != len(named) {
		t.Fatalf("ClassifyNames: %d infos, Classify: %d, named: %d", len(got), len(want), len(named))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("info %d: ClassifyNames %+v, Classify %+v", i, got[i], want[i])
		}
		if i > 0 && got[i-1].Var >= got[i].Var {
			t.Errorf("ClassifyNames not in variable order at %d", i)
		}
	}
	if got[0].NumWrites != 2 || got[0].Var != 1 {
		t.Errorf("rf_1_0_2_0: %+v, want NumWrites 2 at var 1", got[0])
	}
}
