package tdp

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"hyperq/internal/types"
)

func TestRowEncodingRoundTrip(t *testing.T) {
	cols := []ColumnDef{
		{Name: "i", Type: types.Int},
		{Name: "b", Type: types.BigInt},
		{Name: "d", Type: types.Decimal(12, 2)},
		{Name: "f", Type: types.Float},
		{Name: "s", Type: types.VarChar(20)},
		{Name: "dt", Type: types.Date},
		{Name: "ts", Type: types.Timestamp},
		{Name: "p", Type: types.Period(types.KindDate)},
	}
	row := []types.Datum{
		types.NewInt(-7),
		types.NewBigInt(1 << 40),
		types.NewDecimal(12345, 2),
		types.NewFloat(0.85),
		types.NewString("hello"),
		types.NewDate(2014, 1, 1),
		types.NewTimestamp(1234567890123456),
		types.NewPeriod(types.KindDate, types.EncodeDate(2020, 1, 1), types.EncodeDate(2021, 1, 1)),
	}
	payload, err := encodeRow(cols, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(cols, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i].String() != row[i].String() {
			t.Errorf("col %d: %s != %s", i, got[i], row[i])
		}
	}
}

func TestRowNullBitmap(t *testing.T) {
	cols := []ColumnDef{
		{Name: "a", Type: types.Int},
		{Name: "b", Type: types.VarChar(5)},
		{Name: "c", Type: types.Date},
	}
	row := []types.Datum{
		types.NewNull(types.KindInt),
		types.NewString("x"),
		types.NewNull(types.KindDate),
	}
	payload, err := encodeRow(cols, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(cols, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Null || got[1].S != "x" || !got[2].Null {
		t.Fatalf("row = %v", got)
	}
}

// The bit-identical claim of §4.1: DATE values travel in the vendor's
// internal integer form.
func TestDateTravelsInTeradataEncoding(t *testing.T) {
	cols := []ColumnDef{{Name: "d", Type: types.Date}}
	payload, err := encodeRow(cols, []types.Datum{types.NewDate(2014, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// payload: u32 bitmap length + bitmap (1 byte) + u32 date.
	dateBits := uint32(payload[5])<<24 | uint32(payload[6])<<16 | uint32(payload[7])<<8 | uint32(payload[8])
	if int32(dateBits) != 1140101 {
		t.Fatalf("wire date = %d, want Teradata internal 1140101", int32(dateBits))
	}
}

func TestStmtInfoRoundTrip(t *testing.T) {
	cols := []ColumnDef{
		{Name: "amount", Type: types.Decimal(12, 4)},
		{Name: "note", Type: types.VarChar(50)},
		{Name: "span", Type: types.Period(types.KindTimestamp)},
	}
	info := AppendStmtInfo(nil, cols)
	if len(info) != stmtInfoSize(cols) {
		t.Fatalf("payload of %d bytes, stmtInfoSize says %d", len(info), stmtInfoSize(cols))
	}
	got, err := decodeStmtInfo(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Type.Scale != 4 || got[1].Type.Length != 50 || got[2].Type.Elem != types.KindTimestamp {
		t.Fatalf("meta = %+v", got)
	}
}

// echoHandler implements Handler/SessionHandler for protocol tests.
type echoHandler struct{ failLogon bool }

type echoSession struct{}

func (h *echoHandler) Logon(user, pass string) (SessionHandler, error) {
	if h.failLogon || user == "bad" {
		return nil, fmt.Errorf("invalid credentials")
	}
	return &echoSession{}, nil
}

func (s *echoSession) Close() {}

func (s *echoSession) Request(sql string, w ResponseWriter) error {
	switch sql {
	case "ROWS":
		cols := []ColumnDef{{Name: "v", Type: types.Int}}
		if err := w.BeginResultSet(cols); err != nil {
			return err
		}
		for i := 1; i <= 3; i++ {
			if err := w.Row([]types.Datum{types.NewInt(int64(i))}); err != nil {
				return err
			}
		}
		return w.EndStatement(3, "SELECT")
	case "BIG": // bigRows rows of bigCell bytes each: several buffers' worth
		cols := []ColumnDef{{Name: "s", Type: types.VarChar(bigCell)}}
		if err := w.BeginResultSet(cols); err != nil {
			return err
		}
		cell := []types.Datum{types.NewString(strings.Repeat("x", bigCell))}
		for i := 0; i < bigRows; i++ {
			if err := w.Row(cell); err != nil {
				return err
			}
		}
		return w.EndStatement(bigRows, "SELECT")
	case "FAIL":
		return w.Failure(3807, "object does not exist")
	case "MULTI":
		if err := w.EndStatement(1, "INSERT"); err != nil {
			return err
		}
		return w.EndStatement(2, "UPDATE")
	}
	return w.EndStatement(0, "OK")
}

func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = Serve(ln, &echoHandler{}) }()
	return ln.Addr().String()
}

func TestServerClientRequest(t *testing.T) {
	addr := startEcho(t)
	c, err := Dial(addr, "app", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmts, err := c.Request("ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || len(stmts[0].Rows) != 3 || stmts[0].Activity != 3 {
		t.Fatalf("stmts = %+v", stmts)
	}
	if stmts[0].Rows[2][0].I != 3 {
		t.Fatalf("row = %v", stmts[0].Rows[2])
	}
}

func TestServerFailureParcel(t *testing.T) {
	addr := startEcho(t)
	c, err := Dial(addr, "app", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Request("FAIL")
	re, ok := err.(*RequestError)
	if !ok || re.Code != 3807 {
		t.Fatalf("err = %v", err)
	}
	// Connection stays usable.
	if _, err := c.Request("OK"); err != nil {
		t.Fatalf("connection dead after failure: %v", err)
	}
}

func TestServerMultiStatementResponses(t *testing.T) {
	addr := startEcho(t)
	c, err := Dial(addr, "app", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmts, err := c.Request("MULTI")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 || stmts[0].Command != "INSERT" || stmts[1].Activity != 2 {
		t.Fatalf("stmts = %+v", stmts)
	}
}

func TestLogonFailure(t *testing.T) {
	addr := startEcho(t)
	if _, err := Dial(addr, "bad", "pw"); err == nil {
		t.Error("bad logon accepted")
	}
}
