package pcap

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadFile feeds arbitrary bytes to the capture reader, seeded with
// the golden capture: it must return frames or an error, never panic.
func FuzzReadFile(f *testing.F) {
	golden, err := os.ReadFile("testdata/echo.pcapng")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		ReadFile(bytes.NewReader(b))
	})
}
