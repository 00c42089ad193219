// Package catalogue implements the semantics-based EO catalogue of
// Challenge C4. A conventional catalogue answers "area + date + mission"
// searches (internal/sentinel.Archive already does); the semantic
// catalogue additionally exposes the knowledge extracted from the
// products as linked data, so users can ask content questions — the
// paper's flagship example: "How many icebergs were embedded in the
// Norske Øer Ice Barrier at its maximum extent in 2017?".
//
// The catalogue stores product metadata and knowledge entities (ice
// barriers, icebergs, crop fields) as GeoSPARQL features in an indexed
// geostore and answers stSPARQL queries over them (experiment E10).
package catalogue

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/sentinel"
	"repro/internal/sparql"
)

// Ontology IRIs of the catalogue vocabulary.
const (
	NS               = "http://extremeearth.eu/ontology#"
	ClassProduct     = NS + "Product"
	ClassIceberg     = NS + "Iceberg"
	ClassIceBarrier  = NS + "IceBarrier"
	ClassCropField   = NS + "CropField"
	PropMission      = NS + "mission"
	PropLevel        = NS + "processingLevel"
	PropSensingYear  = NS + "sensingYear"
	PropSensingTime  = NS + "sensingTime"
	PropSizeBytes    = NS + "sizeBytes"
	PropObservedYear = NS + "observedYear"
	PropCropType     = NS + "cropType"
	PropAreaHa       = NS + "areaHa"
)

// Catalogue is the semantic catalogue service.
type Catalogue struct {
	store *geostore.Store
}

// New returns an empty catalogue backed by an indexed geostore.
func New() *Catalogue {
	return &Catalogue{store: geostore.New(geostore.ModeIndexed)}
}

// Store exposes the underlying geospatial RDF store.
func (c *Catalogue) Store() *geostore.Store { return c.store }

// Len returns the triple count.
func (c *Catalogue) Len() int { return c.store.Len() }

// Build finalizes indexes after bulk loading.
func (c *Catalogue) Build() { c.store.Build() }

// AddProduct registers a product's metadata as a semantic feature.
func (c *Catalogue) AddProduct(p sentinel.Product) error {
	return c.store.AddFeature(geostore.Feature{
		IRI:      "http://extremeearth.eu/product/" + p.ID,
		Class:    ClassProduct,
		Geometry: p.Footprint,
		Props: map[string]rdf.Term{
			PropMission:     rdf.NewLiteral(p.Mission.String()),
			PropLevel:       rdf.NewLiteral(p.Level),
			PropSensingYear: rdf.NewIntLiteral(int64(p.SensingTime.Year())),
			PropSensingTime: rdf.NewTypedLiteral(p.SensingTime.Format(time.RFC3339), rdf.XSDDateTime),
			PropSizeBytes:   rdf.NewIntLiteral(p.SizeBytes),
		},
	})
}

// AddIceBarrier registers a named ice barrier with its maximum-extent
// polygon for the given year.
func (c *Catalogue) AddIceBarrier(name string, year int, maxExtent geom.Geometry) error {
	return c.store.AddFeature(geostore.Feature{
		IRI:      "http://extremeearth.eu/barrier/" + name,
		Class:    ClassIceBarrier,
		Geometry: maxExtent,
		Props: map[string]rdf.Term{
			PropObservedYear: rdf.NewIntLiteral(int64(year)),
		},
	})
}

// AddIceberg registers an iceberg observation at a location and year.
func (c *Catalogue) AddIceberg(id string, year int, location geom.Point) error {
	return c.store.AddFeature(geostore.Feature{
		IRI:      "http://extremeearth.eu/iceberg/" + id,
		Class:    ClassIceberg,
		Geometry: location,
		Props: map[string]rdf.Term{
			PropObservedYear: rdf.NewIntLiteral(int64(year)),
		},
	})
}

// AddCropField registers a classified crop field (the A1 knowledge
// product).
func (c *Catalogue) AddCropField(id, cropType string, areaHa float64, footprint geom.Geometry) error {
	return c.store.AddFeature(geostore.Feature{
		IRI:      "http://extremeearth.eu/field/" + id,
		Class:    ClassCropField,
		Geometry: footprint,
		Props: map[string]rdf.Term{
			PropCropType: rdf.NewLiteral(cropType),
			PropAreaHa:   rdf.NewFloatLiteral(areaHa),
		},
	})
}

// Query runs an stSPARQL query against the catalogue.
func (c *Catalogue) Query(q string) (*sparql.Results, error) {
	return c.store.QueryString(q)
}

// IcebergsEmbedded answers the paper's flagship semantic query: the
// number of icebergs observed in the given year whose location lies
// within the named barrier's maximum extent. It is implemented as an
// stSPARQL query so the semantic layer (not bespoke code) does the work.
func (c *Catalogue) IcebergsEmbedded(barrierName string, year int) (int, error) {
	// Fetch the barrier geometry.
	bres, err := c.store.QueryString(fmt.Sprintf(`
		PREFIX ee: <%s>
		SELECT ?wkt WHERE {
			<http://extremeearth.eu/barrier/%s> geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
		}`, NS, barrierName))
	if err != nil {
		return 0, err
	}
	if bres.Len() == 0 {
		return 0, fmt.Errorf("catalogue: barrier %q not found", barrierName)
	}
	wkt, _ := bres.Get(0, "wkt")
	barrierWKT := wkt.Value

	res, err := c.store.QueryString(fmt.Sprintf(`
		PREFIX ee: <%s>
		SELECT (COUNT(?berg) AS ?n) WHERE {
			?berg a ee:Iceberg .
			?berg ee:observedYear ?year .
			?berg geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			FILTER(?year = %d)
			FILTER(geof:sfWithin(?wkt, "%s"^^geo:wktLiteral))
		}`, NS, year, barrierWKT))
	if err != nil {
		return 0, err
	}
	if res.Len() != 1 {
		return 0, fmt.Errorf("catalogue: COUNT returned %d rows", res.Len())
	}
	count, _ := res.Get(0, "n")
	n, err := count.Int()
	return int(n), err
}

// ProductsInYearOverArea counts products sensed in year intersecting the
// window — the conventional catalogue search expressed semantically.
func (c *Catalogue) ProductsInYearOverArea(year int, window geom.Rect) (int, error) {
	res, err := c.store.QueryString(fmt.Sprintf(`
		PREFIX ee: <%s>
		SELECT ?p WHERE {
			?p a ee:Product .
			?p ee:sensingYear ?y .
			?p geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			FILTER(?y = %d)
			FILTER(geof:sfIntersects(?wkt, "%s"^^geo:wktLiteral))
		}`, NS, year, window.WKT()))
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}
