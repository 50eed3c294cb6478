package dialect

import (
	"strings"
	"testing"
)

func TestTeradataSupportsEverything(t *testing.T) {
	p := TeradataProfile()
	for c := Capability(0); c < numCapabilities; c++ {
		if !p.Supports(c) {
			t.Errorf("source profile missing %s", c)
		}
	}
}

func TestCloudTargetsShapeMatchesFigure2(t *testing.T) {
	targets := CloudTargets()
	if len(targets) != 4 {
		t.Fatalf("targets = %d", len(targets))
	}
	pct := SupportPct(Figure2Features, targets)
	// Vendor-specific extensions: (almost) nobody supports them.
	for _, c := range []Capability{CapImplicitJoin, CapNamedExprRef, CapVectorSubquery, CapMacros, CapSetTables, CapDateIntCompare} {
		if pct[c] != 0 {
			t.Errorf("%s support = %v%%, want 0%%", c, pct[c])
		}
	}
	// QUALIFY: exactly one modeled target (the Snowflake-like one).
	if pct[CapQualify] != 25 {
		t.Errorf("QUALIFY support = %v%%, want 25%%", pct[CapQualify])
	}
	// Partially standardized features: somewhere strictly between 0 and 100.
	for _, c := range []Capability{CapMerge, CapGroupingSets, CapOrdinalGroupBy, CapRecursive, CapDerivedColAliases} {
		if pct[c] <= 0 || pct[c] >= 100 {
			t.Errorf("%s support = %v%%, want partial", c, pct[c])
		}
	}
}

func TestNoCloudTargetIsFullySource(t *testing.T) {
	// Every cloud target must be missing at least 3 of the Figure 2
	// features — otherwise the migration problem would be trivial.
	for _, p := range CloudTargets() {
		missing := 0
		for _, c := range Figure2Features {
			if !p.Supports(c) {
				missing++
			}
		}
		if missing < 3 {
			t.Errorf("%s is missing only %d features", p.Name, missing)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"Teradata", "CloudA", "CloudB", "CloudC", "CloudD", "cloudd", "CLOUDA", "teradata"} {
		p, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		} else if !strings.EqualFold(p.Name, n) {
			t.Errorf("ByName(%q) = %s", n, p.Name)
		}
	}
	_, err := ByName("OracleXE")
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error %q does not list %s", err, n)
		}
	}
}

func TestFuncNameMapping(t *testing.T) {
	a := CloudA()
	if got := a.FuncName("CHAR_LENGTH"); got != "LEN" {
		t.Errorf("CloudA CHAR_LENGTH = %q", got)
	}
	if got := a.FuncName("COALESCE"); got != "COALESCE" {
		t.Errorf("unmapped name changed: %q", got)
	}
}

func TestCapabilityStrings(t *testing.T) {
	for c := Capability(0); c < numCapabilities; c++ {
		if c.String() == "" || c.String()[0] == 'C' && len(c.String()) > 10 && c.String()[:10] == "Capability" {
			t.Errorf("capability %d lacks a name", c)
		}
	}
}

func TestRowsAreCopies(t *testing.T) {
	p, _ := ByName("CloudA")
	p.Caps, p.MonthArith = 0, DateAddMonth
	if a := CloudA(); a.Caps == 0 || a.MonthArith != AddMonthsFunc {
		t.Errorf("mutating a returned profile changed the table: %+v", a)
	}
}

func TestProfileLiteral(t *testing.T) {
	p := &Profile{Name: "X", Caps: CapsOf(CapRecursive, CapSetTables)}
	for c := Capability(0); c < numCapabilities; c++ {
		if want := c == CapRecursive || c == CapSetTables; p.Supports(c) != want {
			t.Errorf("Supports(%s) = %v, want %v", c, !want, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.Supports(CapRecursive) }); n != 0 {
		t.Errorf("Supports allocates %v times", n)
	}
}
