package cliflags

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"ting/internal/wal"
)

// WriteAddrFile publishes bound addresses as key=value lines (tingd's
// http, bin and debug, a tingcamp coordinator's camp), so :0 binds are
// discoverable without racing the command's output.
func WriteAddrFile(path string, addrs map[string]string) error {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(addrs)) {
		fmt.Fprintf(&b, "%s=%s\n", k, addrs[k])
	}
	return wal.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

// ReadAddrFile parses what WriteAddrFile wrote.
func ReadAddrFile(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	addrs := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			addrs[k] = v
		}
	}
	return addrs, nil
}
