package amoebot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// MarshalText encodes the structure in its canonical text form: one
// "x z" axial coordinate pair per line, in row-major order. The format
// round-trips through ParseStructure.
func (s *Structure) MarshalText() ([]byte, error) {
	var b bytes.Buffer
	for _, c := range s.coords {
		fmt.Fprintf(&b, "%d %d\n", c.X, c.Z)
	}
	return b.Bytes(), nil
}

// Fingerprint returns a stable content hash of the structure's coordinate
// set (128 hex-encoded bits of SHA-256 over the canonical coordinate
// order). Structures with equal coordinate sets have equal fingerprints
// regardless of construction order; the fingerprint is the pooling key of
// the service layer. It is computed once and memoized.
func (s *Structure) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		var buf [16]byte
		for _, c := range s.coords {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(c.X))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(c.Z))
			h.Write(buf[:])
		}
		sum := h.Sum(nil)
		s.fp = hex.EncodeToString(sum[:16])
	})
	return s.fp
}

// ParseStructure decodes the canonical text form produced by MarshalText:
// one "x z" pair per line; blank lines and lines starting with '#' are
// ignored.
func ParseStructure(data []byte) (*Structure, error) {
	var coords []Coord
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var x, z int
		if _, err := fmt.Sscanf(text, "%d %d", &x, &z); err != nil {
			return nil, fmt.Errorf("amoebot: line %d: %q: %w", line, text, err)
		}
		coords = append(coords, XZ(x, z))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewStructure(coords)
}

// ParseMap decodes a human-editable ASCII map: line i is grid row z=i,
// column j is x=j; every rune except space and '.' places an amoebot.
// The rune of each amoebot is returned in marks so callers can designate
// roles (e.g. 'S' sources, 'D' destinations, 'o' plain). Note the
// triangular adjacency: (x,z) also neighbors (x-1,z+1) ("south-west"), so
// vertically aligned runes are adjacent to their lower-left.
func ParseMap(data string) (*Structure, map[rune][]Coord, error) {
	var coords []Coord
	marks := make(map[rune][]Coord)
	for z, line := range strings.Split(data, "\n") {
		for x, r := range line {
			if r == ' ' || r == '.' {
				continue
			}
			c := XZ(x, z)
			coords = append(coords, c)
			marks[r] = append(marks[r], c)
		}
	}
	if len(coords) == 0 {
		return nil, nil, fmt.Errorf("amoebot: empty map")
	}
	s, err := NewStructure(coords)
	if err != nil {
		return nil, nil, err
	}
	return s, marks, nil
}

// MarshalText encodes the forest as one line per member: "x z" for roots
// and "x z px pz" for nodes with parents, in row-major node order.
func (f *Forest) MarshalText() ([]byte, error) {
	var b bytes.Buffer
	for i := int32(0); i < int32(f.s.N()); i++ {
		if !f.Member(i) {
			continue
		}
		c := f.s.Coord(i)
		if p := f.Parent(i); p == None {
			fmt.Fprintf(&b, "%d %d\n", c.X, c.Z)
		} else {
			pc := f.s.Coord(p)
			fmt.Fprintf(&b, "%d %d %d %d\n", c.X, c.Z, pc.X, pc.Z)
		}
	}
	return b.Bytes(), nil
}

// ParseForest decodes the text form produced by Forest.MarshalText over
// the given structure.
func ParseForest(s *Structure, data []byte) (*Forest, error) {
	f := NewForest(s)
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch len(fields) {
		case 2:
			c, err := parseCoordFields(fields[0], fields[1])
			if err != nil {
				return nil, fmt.Errorf("amoebot: line %d: %w", line, err)
			}
			i, ok := s.Index(c)
			if !ok {
				return nil, fmt.Errorf("amoebot: line %d: %v not in structure", line, c)
			}
			f.SetRoot(i)
		case 4:
			c, err := parseCoordFields(fields[0], fields[1])
			if err != nil {
				return nil, fmt.Errorf("amoebot: line %d: %w", line, err)
			}
			p, err := parseCoordFields(fields[2], fields[3])
			if err != nil {
				return nil, fmt.Errorf("amoebot: line %d: %w", line, err)
			}
			i, ok1 := s.Index(c)
			j, ok2 := s.Index(p)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("amoebot: line %d: coordinates not in structure", line)
			}
			f.SetParent(i, j)
		default:
			return nil, fmt.Errorf("amoebot: line %d: want 2 or 4 fields, got %d", line, len(fields))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

func parseCoordFields(xs, zs string) (Coord, error) {
	var x, z int
	if _, err := fmt.Sscanf(xs+" "+zs, "%d %d", &x, &z); err != nil {
		return Coord{}, err
	}
	return XZ(x, z), nil
}

// Render draws the structure as ASCII art in the triangular embedding
// (screen column 2x+z), one glyph per amoebot chosen by the callback.
// It is the inverse-ish of ParseMap up to the diagonal offset and powers
// the spfviz tool.
func (s *Structure) Render(glyph func(i int32) rune) string {
	minX, maxX, minZ, maxZ := s.Bounds()
	var b strings.Builder
	for z := minZ; z <= maxZ; z++ {
		width := 2*(maxX-minX) + (maxZ - minZ) + 2
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for x := minX; x <= maxX; x++ {
			if i, ok := s.Index(XZ(x, z)); ok {
				row[2*(x-minX)+(z-minZ)] = glyph(i)
			}
		}
		b.WriteString(strings.TrimRight(string(row), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// Boundary returns the amoebots with fewer than six occupied neighbors
// (the outer boundary for hole-free structures), in row-major order.
func (s *Structure) Boundary() []int32 {
	var out []int32
	for i := int32(0); i < int32(s.N()); i++ {
		if s.Degree(i) < int(NumDirections) {
			out = append(out, i)
		}
	}
	return out
}

// Diameter returns the largest graph distance between any two amoebots
// (computed by double BFS sweeps over all eccentricities; exact).
func (s *Structure) Diameter() int {
	best := 0
	// Exact computation: BFS from every boundary node (interior nodes never
	// realize the diameter endpoints on induced grid graphs' peripheries).
	// For safety, fall back to all nodes on small structures.
	candidates := s.Boundary()
	if s.N() <= 64 {
		candidates = candidates[:0]
		for i := int32(0); i < int32(s.N()); i++ {
			candidates = append(candidates, i)
		}
	}
	dist := make([]int32, s.N())
	queue := make([]int32, 0, s.N())
	for _, start := range candidates {
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue = append(queue[:0], start)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for d := Direction(0); d < NumDirections; d++ {
				if v := s.nbr[u][d]; v != None && dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, dv := range dist {
			if int(dv) > best {
				best = int(dv)
			}
		}
	}
	return best
}

// Sorted returns the given node indices sorted ascending (a small utility
// for building deterministic source/destination sets).
func Sorted(nodes []int32) []int32 {
	out := append([]int32(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
