package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestLoadVersionMismatch writes an otherwise valid container whose
// head claims format version 99 and checks every reader refuses it by
// name, and that the error names both the found and the supported
// version — an operator staring at a failed startup needs to know
// which side is stale.
func TestLoadVersionMismatch(t *testing.T) {
	var doctored bytes.Buffer
	head := v4Head{FormatVersion: 99, Sharded: true, Events: []string{"purchase"}}
	if err := writeV4(&doctored, head, &v4Builder{}); err != nil {
		t.Fatal(err)
	}
	data := doctored.Bytes()
	_, peekErr := PeekV4(data)
	_, loadErr := Load(bytes.NewReader(data))
	_, inspErr := InspectSnapshot(data)
	for _, err := range []error{peekErr, loadErr, inspErr} {
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("version-99 container: got %v, want %v", err, ErrUnsupportedFormat)
		}
		msg := err.Error()
		if !strings.Contains(msg, "99") {
			t.Errorf("error does not name the found version: %v", err)
		}
		if !strings.Contains(msg, "reads 4") {
			t.Errorf("error does not name the supported version: %v", err)
		}
	}
}
