package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpusSHA256 is the digest of the generated scenarios below. It moves only
// if a generator's rng draws, or what a draw decodes to, change — a routing
// list, a routing table entry's scheme or VC floor, a Normalized rule — and
// such a move also changes the acceptance corpus (TestRandomScenarios,
// TestWorkloadScenarios), so it must be deliberate.
const corpusSHA256 = "01caa7f4f6d338d8d416d54fbf2f72aa74e03485e69db85888809f1da51055ed"

// TestCorpusPinned: Generate and GenerateWorkload for seeds 1–200 and
// FromBits over the committed FuzzScenario seed corpus, in canonical bytes,
// hash to corpusSHA256.
func TestCorpusPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 200; seed++ {
		h.Write(Generate(rand.New(rand.NewSource(seed))).Canonical())
		h.Write(GenerateWorkload(rand.New(rand.NewSource(seed))).Canonical())
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzScenario", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz seed corpus: %v", err)
	}
	for _, path := range files {
		v := fuzzCorpusValues(t, path)
		if len(v) != 8 {
			t.Fatalf("%s: %d values, want 8", path, len(v))
		}
		h.Write(FromBits(uint8(v[0]), uint8(v[1]), uint8(v[2]), uint8(v[3]), uint8(v[4]), uint16(v[5]), v[6], uint16(v[7])).Canonical())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusSHA256 {
		t.Fatalf("corpus sha256 %s, want %s", got, corpusSHA256)
	}
}

// fuzzCorpusValues reads the integer arguments of one "go test fuzz v1" file.
func fuzzCorpusValues(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		open, end := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
		if open < 0 || end < open {
			continue // the version header
		}
		n, err := strconv.ParseInt(line[open+1:end], 10, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out = append(out, n)
	}
	return out
}
