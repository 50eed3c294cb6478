package bench

import (
	"bytes"
	"io"
	"log"
	"os"
	"testing"

	"hyperq/internal/dialect"
)

// The replay legs report through their return values only: a captured
// statement carries its literals (the capture log keeps the pre-redaction
// text for replay), so neither the shadow replayer nor the single-backend
// baseline may echo it to the process's output or log.
func TestReplayPrintsNothing(t *testing.T) {
	target := dialect.CloudA()
	streams, err := captureWorkloads(target, 4)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	rep, dualErr := dualReplay(target, streams, 0)
	_, singleErr := singleReplay(target, streams)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if dualErr != nil || singleErr != nil {
		t.Fatalf("replay: dual %v, single %v", dualErr, singleErr)
	}
	if rep.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if len(out) > 0 || logged.Len() > 0 {
		t.Errorf("replay printed %q and logged %q", out, logged.String())
	}
}
