package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"waitfree/internal/topology"
)

// ComplexDTO is the serializable form of a topology.Complex: the vertex
// table in index order (keys, colors, carriers as base vertex ids) plus the
// facet lists, with the base chain encoded recursively. Round-tripping
// preserves vertex numbering, colors, carriers, and the f-vector.
type ComplexDTO struct {
	Verts  []VertexDTO
	Facets [][]int
	Base   *ComplexDTO
}

// VertexDTO is one vertex record of a ComplexDTO.
type VertexDTO struct {
	Key     string
	Color   int
	Carrier []int // base vertex ids; set iff the complex is a subdivision
}

// ComplexToDTO encodes a sealed complex (and its base chain).
func ComplexToDTO(c *topology.Complex) *ComplexDTO {
	d := &ComplexDTO{}
	if b := c.Base(); b != nil {
		d.Base = ComplexToDTO(b)
	}
	d.Verts = make([]VertexDTO, c.NumVertices())
	for v := 0; v < c.NumVertices(); v++ {
		rec := VertexDTO{Key: c.Key(topology.Vertex(v)), Color: c.Color(topology.Vertex(v))}
		if c.Base() != nil {
			carrier := c.Carrier(topology.Vertex(v))
			rec.Carrier = make([]int, len(carrier))
			for i, w := range carrier {
				rec.Carrier[i] = int(w)
			}
		}
		d.Verts[v] = rec
	}
	for _, f := range c.Facets() {
		facet := make([]int, len(f))
		for i, v := range f {
			facet[i] = int(v)
		}
		d.Facets = append(d.Facets, facet)
	}
	return d
}

// ComplexFromDTO rebuilds the complex (and its base chain). The rebuilt
// complex is vertex-for-vertex identical to the encoded one.
func ComplexFromDTO(d *ComplexDTO) (*topology.Complex, error) {
	var c *topology.Complex
	var base *topology.Complex
	if d.Base != nil {
		var err error
		base, err = ComplexFromDTO(d.Base)
		if err != nil {
			return nil, err
		}
		c = topology.NewSubdivision(base)
	} else {
		c = topology.NewComplex()
	}
	for i, rec := range d.Verts {
		v, err := c.AddVertex(rec.Key, rec.Color)
		if err != nil {
			return nil, fmt.Errorf("engine: decode vertex %d: %w", i, err)
		}
		if int(v) != i {
			return nil, fmt.Errorf("engine: duplicate vertex key %q at index %d", rec.Key, i)
		}
		if base != nil {
			carrier := make([]topology.Vertex, len(rec.Carrier))
			for j, w := range rec.Carrier {
				if w < 0 || w >= base.NumVertices() {
					return nil, fmt.Errorf("engine: vertex %d carrier id %d out of range", i, w)
				}
				carrier[j] = topology.Vertex(w)
			}
			c.SetCarrier(v, carrier)
		}
	}
	for _, f := range d.Facets {
		facet := make([]topology.Vertex, len(f))
		for i, v := range f {
			facet[i] = topology.Vertex(v)
		}
		if err := c.AddSimplex(facet...); err != nil {
			return nil, fmt.Errorf("engine: decode facet: %w", err)
		}
	}
	return c.Seal(), nil
}

// EncodeComplexGob / DecodeComplexGob are the complex codec, a gob of the
// ComplexDTO. No cache kind stores a complex, so neither spill files nor
// peer artifacts reach it.
func EncodeComplexGob(c *topology.Complex) ([]byte, error) { return gobEncode(ComplexToDTO(c)) }

// DecodeComplexGob rehydrates a complex from its gob DTO.
func DecodeComplexGob(data []byte) (*topology.Complex, error) {
	var d ComplexDTO
	if err := gobDecode(data, &d); err != nil {
		return nil, err
	}
	return ComplexFromDTO(&d)
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
