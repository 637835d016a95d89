package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// FileShard is one registered serving shard in a directory file.
type FileShard struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// File is the static directory the multi-process topology shares:
// `uaqp serve -shard` processes register themselves in it and `uaqp
// front` builds its Directory from it. The seed and vnode count live
// in the file so every process derives the identical ring.
type File struct {
	Seed   int64       `json:"seed"`
	VNodes int         `json:"vnodes,omitempty"`
	Shards []FileShard `json:"shards"`
}

// LoadFile reads and validates a directory file.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("shard: directory file %s: %w", path, err)
	}
	seen := make(map[string]bool, len(f.Shards))
	for _, s := range f.Shards {
		if s.Name == "" {
			return nil, fmt.Errorf("shard: directory file %s: shard with empty name", path)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("shard: directory file %s: duplicate shard %q", path, s.Name)
		}
		seen[s.Name] = true
	}
	return &f, nil
}

// Save writes the file atomically (write-then-rename), so a front
// re-reading the directory never observes a torn write.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Register adds the shard, or updates its address if the name is
// already present.
func (f *File) Register(name, addr string) {
	for i := range f.Shards {
		if f.Shards[i].Name == name {
			f.Shards[i].Addr = addr
			return
		}
	}
	f.Shards = append(f.Shards, FileShard{Name: name, Addr: addr})
}

// addrs returns the shard-name → address map.
func (f *File) addrs() map[string]string {
	out := make(map[string]string, len(f.Shards))
	for _, s := range f.Shards {
		out[s.Name] = s.Addr
	}
	return out
}

// Directory builds the consistent-hash directory the file describes.
func (f *File) Directory() (*Directory, error) {
	names := make([]string, len(f.Shards))
	for i, s := range f.Shards {
		names[i] = s.Name
	}
	return NewDirectory(names, f.VNodes, f.Seed)
}
