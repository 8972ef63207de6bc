// Package protocols embeds the repository's shipped coherence protocol
// map files — the "table lookup map files" the paper's console software
// loads into each node controller FPGA at initialization (§3.2) — and
// resolves protocol names or file paths into compiled, model-checked
// tables for the binaries, the service, and the console.
package protocols

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"

	"memories/internal/coherence"
)

//go:embed *.map
var files embed.FS

// Names returns the shipped protocol names (the embedded *.map base
// names), sorted.
func Names() []string {
	entries, err := files.ReadDir(".")
	if err != nil {
		panic(err) // embed.FS root always readable
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".map"))
	}
	sort.Strings(out)
	return out
}

// Source returns the raw map-file text of a shipped protocol.
func Source(name string) (string, error) {
	data, err := files.ReadFile(name + ".map")
	if err != nil {
		return "", fmt.Errorf("protocols: unknown protocol %q (shipped: %s)",
			name, strings.Join(Names(), ", "))
	}
	return string(data), nil
}

// Load resolves a shipped protocol name into a parsed, compiled, and
// model-checked table. Every load re-verifies the table — the paper's
// initialization-phase check, not a trusted cache.
func Load(name string) (*coherence.Table, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	return verify(src, name)
}

// MustLoad is Load for the shipped names, which the tests prove pass
// the gauntlet; it panics on any other name. It is what a default board
// configuration says where it means "stock MESI".
func MustLoad(name string) *coherence.Table {
	tab, err := Load(name)
	if err != nil {
		panic(err)
	}
	return tab
}

// LoadFile parses, compiles, and model-checks a user-supplied map file
// from the filesystem ("bring your own protocol").
func LoadFile(path string) (*coherence.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("protocols: %w", err)
	}
	return verify(string(data), path)
}

// Resolve turns a -protocol flag value into a verified table: a shipped
// protocol name, or a path to a map file (anything containing a path
// separator or ending in .map).
func Resolve(nameOrPath string) (*coherence.Table, error) {
	if strings.ContainsRune(nameOrPath, os.PathSeparator) || strings.HasSuffix(nameOrPath, ".map") {
		return LoadFile(nameOrPath)
	}
	return Load(strings.ToLower(nameOrPath))
}

// Verify parses map-file text and subjects it to the full load-time
// gauntlet: syntax, compilation, and the exhaustive model check.
func Verify(src string) (*coherence.Table, error) {
	return verify(src, "inline map")
}

func verify(src, origin string) (*coherence.Table, error) {
	tab, err := coherence.ParseMapFileString(src)
	if err != nil {
		return nil, fmt.Errorf("protocols: %s: %w", origin, err)
	}
	if err := coherence.Check(tab); err != nil {
		return nil, fmt.Errorf("protocols: %s: %w", origin, err)
	}
	return tab, nil
}
