package cliflags

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

// WriteAddrFile publishes bound addresses as key=value lines (tingd's
// http, bin and debug, a tingcamp coordinator's camp), so :0 binds are
// discoverable without racing the command's output.
func WriteAddrFile(path string, addrs map[string]string) error {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(addrs)) {
		fmt.Fprintf(&b, "%s=%s\n", k, addrs[k])
	}
	return WriteFileAtomic(path, []byte(b.String()))
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

// WriteFileAtomic writes b to path through a temporary file and a rename,
// so a reader polling for path never sees half of it.
func WriteFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
