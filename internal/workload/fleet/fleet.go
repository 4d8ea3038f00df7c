// Package fleet is the fleet-scale traffic layer over the serving
// machinery: Zipf-distributed tenant traffic shares across hundreds to
// thousands of tenants (memory regimes sampled from the serving
// archetypes), cross-tenant *shared catalogs* — tenants of a group query
// the same physically materialized tables, so statistics drift on a
// shared table is correlated across every tenant and query that touches
// it — and a paced offered-load mode (deadline-anchored QPS) so
// realized-I/O and optimize-latency regressions attribute to load level.
// Requests are served through the resilience layer wrapping a
// core.Optimizer, against an LSC baseline optimized per problem and
// executed under the identical memory trajectories.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
	"lecopt/internal/resilience"
	"lecopt/internal/storage"
	"lecopt/internal/workload/serving"
)

// ErrBadFleet reports an invalid fleet specification.
var ErrBadFleet = errors.New("fleet: invalid spec")

// fleetCostModel matches the serving path: predictions are judged against
// the engine's measured I/O, so costing replays the engine's machine.
const fleetCostModel = cost.ModelEngine

// Spec controls fleet generation. The physical vocabulary (pages, tuples,
// filters, indexes) is serving.MixSpec's generator — engine-scale,
// physically materialized, actually executed — but tables live in
// *groups* shared across tenants rather than per-query stores.
type Spec struct {
	// Tenants is the fleet size; traffic shares follow a Zipf law with
	// skew TenantZipfS (tenant 0 is the heaviest).
	Tenants     int
	TenantZipfS float64

	// Groups partitions the fleet's data: each group materializes
	// TablesPerGroup shared tables and carries QueriesPerGroup distinct
	// queries joining subsets of them. Every tenant is homed to one
	// group, so a group's drift walk is correlated across all its
	// tenants and queries. When ChurnTenants > 0, group 0 is reserved
	// for the engineered churn tenants and walks ChurnDrift.
	Groups          int
	TablesPerGroup  int
	QueriesPerGroup int

	// Gen draws the group tables and the queries over them, exactly as
	// it draws the serving mix's (MaxTables ≤ TablesPerGroup).
	serving.Gen

	// Drift is the per-group statistics walk of the regular groups;
	// ChurnDrift is the churn group's — typically band-crossing factors
	// with low stickiness, so the churn tenants' cached plans keep going
	// stale (the condition the circuit breakers exist to detect).
	Drift      serving.DriftSpec
	ChurnDrift serving.DriftSpec

	// ChurnTenants engineers that many high-churn tenants as tenant IDs
	// 0..ChurnTenants-1 — the top Zipf traffic ranks — homed to group 0.
	ChurnTenants int

	// Archetypes are the memory regimes tenants sample from (default:
	// the four serving archetypes).
	Archetypes []serving.Tenant

	// LoadLevels are the offered-load points in requests per virtual
	// second; the run replays the identical request stream at each.
	LoadLevels []float64

	// JitterSigma is the lognormal σ scaling each attempt's modeled cold
	// duration (primary and hedge draws are independent).
	JitterSigma float64

	// Resilience policies and the modeled latency price list.
	Budget  resilience.BudgetSpec
	Breaker resilience.BreakerSpec
	Hedge   resilience.HedgeSpec
	Latency resilience.LatencySpec
}

// DefaultSpec returns the canonical fleet: 512 tenants over 4 groups with
// 4 engineered churn tenants, served at a comfortable and an overloaded
// QPS level. Generation, drift and archetypes are the default serving
// mix's, with at most 3 tables per query over tables of at most 48 pages.
func DefaultSpec() (Spec, error) {
	mix, err := serving.DefaultMixSpec()
	if err != nil {
		return Spec{}, err
	}
	gen := mix.Gen
	gen.MaxTables = 3
	gen.MaxPages = 48
	return Spec{
		Tenants:         512,
		TenantZipfS:     1.1,
		Groups:          4,
		TablesPerGroup:  5,
		QueriesPerGroup: 6,
		Gen:             gen,
		Drift:           mix.Drift,
		ChurnDrift:      serving.DriftSpec{Factors: []float64{0.25, 1, 4}, Stay: 0.35},
		ChurnTenants:    4,
		Archetypes:      mix.Tenants,
		LoadLevels:      []float64{250, 2500},
		JitterSigma:     0.6,
		Budget:          resilience.BudgetSpec{Capacity: 3000, RefillPerSec: 30_000},
		Breaker:         resilience.BreakerSpec{Window: 16, Threshold: 0.6, MinSamples: 12, Cooldown: 50_000},
		Hedge:           resilience.HedgeSpec{Quantile: 0.7, MinSamples: 6, WindowSize: 64, Startup: 200},
		Latency: resilience.LatencySpec{
			Hit: 150, ColdBase: 1500, PerCandidate: 40, PerProbe: 5,
			Degraded: 400, Observe: 50,
		},
	}, nil
}

// fleetQuery is one distinct fleet query: a join block over a subset of
// its group's shared tables.
type fleetQuery struct {
	ID     int // fleet-global query ID
	Group  int
	Block  *query.Block
	Phases int
}

// group is one shared-catalog group: the materialized tables, the engine
// over them, the catalog statistics, and the queries that join them. One
// drift walk per group scales the catalog's distinct counts for *every*
// query and tenant of the group at once — correlated drift.
type group struct {
	ID      int
	Cat     *catalog.Catalog
	Store   *storage.Store
	Eng     *engine.Engine
	Queries []*fleetQuery
	Churn   bool

	driftChain *dist.Chain // nil: statistics never drift
}

// tenant is one tenant: a stable name, a home group and a memory
// archetype.
type tenant struct {
	Name      string
	Group     int
	Archetype int
}

// fleet is a generated fleet workload, ready to run.
type fleet struct {
	Spec    Spec
	Groups  []*group
	Tenants []tenant
	Queries []*fleetQuery // flattened, indexed by fleet-global query ID

	traffic dist.Dist // Zipf law over tenant IDs
}

// newFleet generates a fleet from the spec using rng for all randomness
// (same seed ⇒ same fleet, including the physical tuples).
func newFleet(spec Spec, rng *rand.Rand) (*fleet, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	f := &fleet{Spec: spec}
	for g := 0; g < spec.Groups; g++ {
		churn := spec.ChurnTenants > 0 && g == 0
		grp, err := generateGroup(g, len(f.Queries), spec, churn, rng)
		if err != nil {
			return nil, err
		}
		f.Groups = append(f.Groups, grp)
		f.Queries = append(f.Queries, grp.Queries...)
	}
	// Tenants: churn tenants take the top Zipf ranks and home on the
	// churn group; everyone else is spread across the regular groups.
	regular := make([]int, 0, spec.Groups)
	for g := range f.Groups {
		if !f.Groups[g].Churn {
			regular = append(regular, g)
		}
	}
	f.Tenants = make([]tenant, spec.Tenants)
	for i := range f.Tenants {
		t := tenant{
			Name:      fmt.Sprintf("tenant-%04d", i),
			Archetype: rng.Intn(len(spec.Archetypes)),
		}
		if i < spec.ChurnTenants {
			t.Group = 0
		} else {
			t.Group = regular[rng.Intn(len(regular))]
		}
		f.Tenants[i] = t
	}
	ids := make([]float64, spec.Tenants)
	for i := range ids {
		ids[i] = float64(i)
	}
	traffic, err := dist.Zipf(ids, spec.TenantZipfS)
	if err != nil {
		return nil, err
	}
	f.traffic = traffic
	return f, nil
}

func validate(spec Spec) error {
	if spec.Tenants < 1 {
		return fmt.Errorf("%w: %d tenants", ErrBadFleet, spec.Tenants)
	}
	if math.IsNaN(spec.TenantZipfS) || spec.TenantZipfS < 0 {
		return fmt.Errorf("%w: tenant Zipf skew %v", ErrBadFleet, spec.TenantZipfS)
	}
	if spec.Groups < 1 || spec.QueriesPerGroup < 1 || spec.TablesPerGroup < 2 {
		return fmt.Errorf("%w: %d groups × %d queries over %d tables", ErrBadFleet,
			spec.Groups, spec.QueriesPerGroup, spec.TablesPerGroup)
	}
	if spec.ChurnTenants < 0 || spec.ChurnTenants > spec.Tenants {
		return fmt.Errorf("%w: %d churn tenants", ErrBadFleet, spec.ChurnTenants)
	}
	if spec.ChurnTenants > 0 && spec.Groups < 2 {
		return fmt.Errorf("%w: churn tenants need a dedicated group (Groups >= 2)", ErrBadFleet)
	}
	if err := spec.Gen.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFleet, err)
	}
	if spec.MaxTables > spec.TablesPerGroup {
		return fmt.Errorf("%w: %d tables per query over %d per group", ErrBadFleet, spec.MaxTables, spec.TablesPerGroup)
	}
	if len(spec.Archetypes) == 0 {
		return fmt.Errorf("%w: no archetypes", ErrBadFleet)
	}
	for _, a := range spec.Archetypes {
		if err := a.Env.Validate(); err != nil {
			return fmt.Errorf("%w: archetype %q: %v", ErrBadFleet, a.Name, err)
		}
	}
	if len(spec.LoadLevels) == 0 {
		return fmt.Errorf("%w: no load levels", ErrBadFleet)
	}
	for _, qps := range spec.LoadLevels {
		if !(qps > 0) || math.IsInf(qps, 0) {
			return fmt.Errorf("%w: load level %v qps", ErrBadFleet, qps)
		}
	}
	if spec.JitterSigma < 0 || math.IsNaN(spec.JitterSigma) {
		return fmt.Errorf("%w: jitter sigma %v", ErrBadFleet, spec.JitterSigma)
	}
	return nil
}

// generateGroup materializes one group's shared tables with the serving
// generator, then draws its queries, each joining a random subset of the
// pool — the sharing is the point: distinct queries join the same
// physical tables, so one table's drift is visible to all of them.
func generateGroup(id, nextQueryID int, spec Spec, churn bool, rng *rand.Rand) (*group, error) {
	g := &group{ID: id, Churn: churn, Cat: catalog.New(), Store: storage.NewStore()}
	drift := spec.Drift
	if churn {
		drift = spec.ChurnDrift
	}
	chain, err := drift.Chain()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFleet, err)
	}
	g.driftChain = chain
	pool := make([]string, spec.TablesPerGroup)
	for i := range pool {
		pool[i] = fmt.Sprintf("g%d_t%d", id, i)
		if err := spec.Gen.Table(pool[i], g.Cat, g.Store, rng); err != nil {
			return nil, err
		}
	}
	g.Eng = engine.New(g.Store)
	for q := 0; q < spec.QueriesPerGroup; q++ {
		tables := spec.MinTables + rng.Intn(spec.MaxTables-spec.MinTables+1)
		names := make([]string, tables)
		for i, p := range rng.Perm(len(pool))[:tables] {
			names[i] = pool[p]
		}
		shape := spec.Shapes[rng.Intn(len(spec.Shapes))]
		blk, err := spec.Gen.Block(names, shape, g.Cat, rng)
		if err != nil {
			return nil, err
		}
		g.Queries = append(g.Queries, &fleetQuery{
			ID: nextQueryID + q, Group: id, Block: blk, Phases: tables - 1,
		})
	}
	return g, nil
}

// planOpts is the fleet's plan-space tuning: the spec's index switch and
// the engine-exact serving cost model.
func (f *fleet) planOpts() *optimizer.Options {
	return &optimizer.Options{
		DisableIndexes: f.Spec.DisableIndexes,
		CostModel:      fleetCostModel,
	}
}

// archetypeEnv returns a tenant's memory environment.
func (f *fleet) archetypeEnv(t tenant) envsim.Env {
	return f.Spec.Archetypes[t.Archetype].Env
}
