package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

const (
	// goldenSuite is the suite workload's deterministic envelope. It is
	// also the exact reference the sampled workload's error is taken
	// against: every sampled cell is one of its cells.
	goldenSuite = "suite.json"
	// goldenDigests maps "sampled", "sweep.<seed>" and "serve.<seed>" to
	// output digests.
	goldenDigests = "digests.json"
)

// goldenSeeds are the seeds whose sweep and serve digests are recorded.
var goldenSeeds = []int64{1, 2}

// goldenStore reads and rewrites the golden outputs in one directory.
type goldenStore struct{ dir string }

func (g goldenStore) path(name string) string { return filepath.Join(g.dir, name) }

func (g goldenStore) suite() ([]byte, error) {
	data, err := os.ReadFile(g.path(goldenSuite))
	if err != nil {
		return nil, fmt.Errorf("reading the golden envelope: %w", err)
	}
	return data, nil
}

func (g goldenStore) writeSuite(doc []byte) error {
	return os.WriteFile(g.path(goldenSuite), doc, 0o644)
}

func (g goldenStore) digests() (map[string]string, error) {
	data, err := os.ReadFile(g.path(goldenDigests))
	if err != nil {
		return nil, fmt.Errorf("reading the golden digests: %w", err)
	}
	d := map[string]string{}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("reading the golden digests: %w", err)
	}
	return d, nil
}

// checkDigest compares got with the recorded digest of key, or records it
// when update is set.
func (g goldenStore) checkDigest(key, got string, update bool, out io.Writer) error {
	d, err := g.digests()
	if err != nil && !(update && errors.Is(err, fs.ErrNotExist)) {
		return err
	}
	if update {
		if d == nil {
			d = map[string]string{}
		}
		d[key] = got
		data, err := json.MarshalIndent(d, "", " ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %s digest %s\n", key, got)
		return os.WriteFile(g.path(goldenDigests), append(data, '\n'), 0o644)
	}
	want, ok := d[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s in %s", key, g.path(goldenDigests))
	}
	if got != want {
		return fmt.Errorf("%w: %s digest %s, golden %s", errCheck, key, got, want)
	}
	fmt.Fprintf(out, "%s output matches golden digest %s\n", key, got)
	return nil
}

// checkSeedDigest checks a seeded workload's digest against the golden
// one for recorded seeds; for any other seed it prints the digest, so two
// commits can be compared by hand.
func (g goldenStore) checkSeedDigest(workload string, seed int64, got string, update bool, out io.Writer) error {
	recorded := false
	for _, s := range goldenSeeds {
		recorded = recorded || s == seed
	}
	if !recorded {
		if update {
			return fmt.Errorf("golden digests are recorded for seeds %v only", goldenSeeds)
		}
		fmt.Fprintf(out, "%s.%d output digest %s (no golden digest for this seed)\n", workload, seed, got)
		return nil
	}
	return g.checkDigest(fmt.Sprintf("%s.%d", workload, seed), got, update, out)
}
