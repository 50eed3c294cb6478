package hyperq

import (
	"reflect"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
)

// TRIM with a trim specification and a trim character goes end to end:
// parsed in SQL-A, bound with its second argument, serialized in the
// standard form, parsed and evaluated by the backend. Every cloud target
// answers through the wire with the same rows. TRIM without a character
// strips the pad space only, as LTRIM and RTRIM do: a tab and a newline stay.
func TestTrimSpecsOnEveryTarget(t *testing.T) {
	const sql = `SEL acct, TRIM(BOTH 'a' FROM name), TRIM(LEADING 'a' FROM name),
	  trim(trailing 'a' from name), TRIM('e' FROM name), TRIM(BOTH FROM '  x  '),
	  TRIM(LEADING FROM '  y'), TRIM(name), CHAR_LENGTH(TRIM(' ` + "\tx\n" + ` '))
	  FROM accts WHERE TRIM(TRAILING 'a' FROM name) <> 'x' ORDER BY acct`
	want := []string{
		"1 cme cme acme acm x y acme 3",
		"2 globex globex globex globex x y globex 3",
		"3 initech initech initech initech x y initech 3",
		"4 umbr umbra umbr umbra x y umbra 3",
	}
	for _, target := range dialect.CloudTargets() {
		t.Run(target.Name, func(t *testing.T) {
			eng := engine.New(target)
			s := eng.NewSession()
			for _, ddl := range customer.SchemaDDL {
				if _, err := s.ExecSQL(ddl); err != nil {
					t.Fatal(err)
				}
			}
			st := newStreamStack(t, target, eng, Config{}, tdp.Options{})
			c, err := tdp.Dial(st.addr, "app", "pw")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := c.Request(sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range res[0].Rows {
				cells := make([]string, len(row))
				for i, d := range row {
					cells[i] = strings.TrimSpace(d.String())
				}
				got = append(got, strings.Join(cells, " "))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
