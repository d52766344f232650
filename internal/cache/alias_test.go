package cache

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// dig is a test digest named by s.
func dig(s string) Digest { return sha256.Sum256([]byte(s)) }

func mustOpen(t *testing.T, dir string, maxMem int) *Store {
	t.Helper()
	s, err := Open(dir, maxMem)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAliasHitIsAGet: an alias hit returns the entry's key and value and
// counts and touches exactly what Get(key) would; an unknown digest, or one
// offered for a key the memory tier does not hold, is nothing.
func TestAliasHitIsAGet(t *testing.T) {
	s := mustOpen(t, "", 2)
	if _, _, ok := s.GetAlias(dig("d1")); ok {
		t.Fatal("alias hit on an empty store")
	}
	s.Alias(dig("d1"), "k1") // no entry: no alias
	if _, _, ok := s.GetAlias(dig("d1")); ok || len(s.alias) != 0 {
		t.Fatal("an alias was attached to a key the memory tier does not hold")
	}
	s.Put("k1", []byte("v1"))
	s.Put("k2", []byte("v2"))
	s.Alias(dig("d1"), "k1")
	s.Alias(dig("d1"), "k1") // again: still one
	if key, val, ok := s.GetAlias(dig("d1")); !ok || len(key) != 1 || key[0] != "k1" || string(val) != "v1" {
		t.Fatalf("GetAlias = %q, %q, %v", key, val, ok)
	}
	if st := s.Snapshot(); st.Hits != 1 || st.DiskHits != 0 || st.Misses != 0 {
		t.Fatalf("stats after one alias hit = %+v, want exactly one hit", st)
	}
	if n := len(s.mem["k1"].Value.(*memEntry).aliases); n != 1 {
		t.Fatalf("k1 holds %d aliases after attaching one digest twice", n)
	}
	// The hit touched k1, so k3 evicts k2 — and k1's alias survives.
	s.Put("k3", []byte("v3"))
	if _, ok := s.Get("k2"); ok {
		t.Fatal("k2 survived: the alias hit did not touch the LRU")
	}
	if _, _, ok := s.GetAlias(dig("d1")); !ok {
		t.Fatal("k1's alias died with another entry")
	}
}

// TestAliasDiesWithItsEntry: eviction from the memory tier removes the
// entry's aliases — a disk-tier key takes the full path again — and a
// re-promoted entry starts with none.
func TestAliasDiesWithItsEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1)
	s.Put("k1", []byte(`{"v":1}`))
	s.Alias(dig("d1"), "k1")
	s.Put("k2", []byte(`{"v":2}`)) // evicts k1 from memory; disk keeps it
	if _, _, ok := s.GetAlias(dig("d1")); ok {
		t.Fatal("an alias outlived its memory-tier entry")
	}
	if len(s.alias) != 0 {
		t.Fatalf("alias table holds %d digests for an empty set of entries", len(s.alias))
	}
	if v, ok := s.Get("k1"); !ok || string(v) != `{"v":1}` {
		t.Fatal("the evicted key is not on disk")
	}
	if _, _, ok := s.GetAlias(dig("d1")); ok {
		t.Fatal("promotion from disk resurrected an alias")
	}
	s.Alias(dig("d1"), "k1")
	if _, _, ok := s.GetAlias(dig("d1")); !ok {
		t.Fatal("a promoted entry cannot be aliased again")
	}
	if st := s.Snapshot(); st.Hits != 2 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 2 hits of which 1 from disk", st)
	}
}

// TestAliasTableBounded: per entry the newest maxAliases spellings are
// kept, and after maxMem+k keys with more spellings each than that the
// table holds at most maxAliases x maxMem digests, none for an evicted key.
func TestAliasTableBounded(t *testing.T) {
	const maxMem, keys, spellings = 4, 9, 7
	s := mustOpen(t, "", maxMem)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		s.Put(key, []byte("v"))
		for i := 0; i < spellings; i++ {
			s.Alias(dig(fmt.Sprintf("d%d.%d", k, i)), key)
		}
		if len(s.alias) > maxAliases*maxMem {
			t.Fatalf("after %d keys the alias table holds %d digests, bound %d", k+1, len(s.alias), maxAliases*maxMem)
		}
	}
	if len(s.alias) != maxAliases*maxMem {
		t.Fatalf("alias table holds %d digests, want %d", len(s.alias), maxAliases*maxMem)
	}
	for k := 0; k < keys; k++ {
		for i := 0; i < spellings; i++ {
			_, _, ok := s.GetAlias(dig(fmt.Sprintf("d%d.%d", k, i)))
			if want := k >= keys-maxMem && i >= spellings-maxAliases; ok != want {
				t.Errorf("digest %d of key %d: alias hit %v, want %v", i, k, ok, want)
			}
		}
	}
}

// TestAliasConcurrent: 8 goroutines put, alias and look up the same 16 keys
// against a 4-entry tier (run under -race). An alias that is found always
// names its own key's value, and the table stays inside its bound.
func TestAliasConcurrent(t *testing.T) {
	const maxMem = 4
	s := mustOpen(t, "", maxMem)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (i + g) % 16
				key, d, val := fmt.Sprintf("k%d", k), dig(fmt.Sprintf("d%d.%d", k, g%5)), fmt.Sprintf("v%d", k)
				if gotKey, gotVal, ok := s.GetAlias(d); ok && (gotKey[0] != key || string(gotVal) != val) {
					t.Errorf("alias %x answered %s=%s, want %s=%s", d, gotKey, gotVal, key, val)
					return
				}
				s.Put(key, []byte(val))
				s.Alias(d, key)
			}
		}(g)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.alias) > maxAliases*maxMem {
		t.Errorf("alias table holds %d digests, bound %d", len(s.alias), maxAliases*maxMem)
	}
	for d, el := range s.alias {
		e := el.Value.(*memEntry)
		if s.mem[e.key] != el {
			t.Errorf("alias %x outlived its entry %s", d, e.key)
		}
	}
}
