//! The four workloads: what each is made of, how it is set up from a
//! seed, and the fixed op list every pass replays. README.md says why
//! each exists and which layer owns it.

use crate::layers::{self, Scale};
use crate::layers::{
    Database, Maintainer, MatchingEngine, PhysicalPlan, Row, SpjgExpr, TableDelta, TableId, ViewId,
    ViewStore,
};
use crate::pace::{self, Pace};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// How a pass's op list is drawn from the distinct queries.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Every distinct query once, in a seeded order: repeats are as far
    /// apart as they can be, so the substitute cache overflows.
    RoundRobin,
    /// Each client walks the distinct queries in its own seeded order, a
    /// window of `window` at a time, and replays each window `rounds`
    /// times before moving on: the repeated-template traffic the
    /// substitute cache was built for (hit share (rounds - 1) / rounds).
    Windows { window: usize, rounds: usize },
    /// `writes` rounds of `reads_per_write` reads then one write; every
    /// `refresh_every`-th write is followed by a refresh of all dirty
    /// views.
    Mixed {
        writes: usize,
        reads_per_write: usize,
        refresh_every: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub views: usize,
    pub scale: Scale,
    pub clients: usize,
    /// Distinct queries generated at set-up.
    pub queries: usize,
    pub shape: Shape,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// The verification pass checks every `verify_stride`-th distinct
    /// query, from a seeded first one.
    pub verify_stride: usize,
    /// (untraced pass, traced pass) pairs of the traced phase: a fixed
    /// count, so traced counts repeat exactly.
    pub traced_pairs: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "match_cold_50k",
        views: 50_000,
        scale: Scale::Tiny,
        clients: 1,
        queries: 400,
        shape: Shape::RoundRobin,
        setups: 1,
        verify_stride: 1,
        traced_pairs: 1,
    },
    Spec {
        name: "serve_warm_1k",
        views: 1_000,
        scale: Scale::Tiny,
        clients: 2,
        queries: 256,
        shape: Shape::Windows {
            window: 16,
            rounds: 32,
        },
        setups: 9,
        verify_stride: 1,
        traced_pairs: 2,
    },
    Spec {
        name: "exec_heavy_1k",
        views: 1_000,
        scale: Scale::HalfSmall,
        clients: 1,
        queries: 400,
        shape: Shape::RoundRobin,
        setups: 3,
        verify_stride: 4,
        traced_pairs: 2,
    },
    Spec {
        name: "mixed_rw_1k",
        views: 1_000,
        scale: Scale::Tiny,
        clients: 1,
        queries: 200,
        shape: Shape::Mixed {
            writes: 8,
            reads_per_write: 25,
            refresh_every: 8,
        },
        setups: 3,
        verify_stride: 1,
        traced_pairs: 4,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at a size a debug-build test runs in a second.
    pub fn smoke(self) -> Spec {
        Spec {
            views: self.views.min(100),
            queries: self.queries.min(16),
            shape: match self.shape {
                Shape::RoundRobin => Shape::RoundRobin,
                Shape::Windows { .. } => Shape::Windows {
                    window: 4,
                    rounds: 3,
                },
                Shape::Mixed { .. } => Shape::Mixed {
                    writes: 2,
                    reads_per_write: 4,
                    refresh_every: 2,
                },
            },
            setups: 1,
            traced_pairs: 1,
            ..self
        }
    }

    pub fn maintained(&self) -> bool {
        matches!(self.shape, Shape::Mixed { .. })
    }
}

/// splitmix64: the harness's only random source, so inputs depend on
/// `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent seed for one input stream of a run.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The database — base data, views — and the distinct queries come from
/// this constant; `--seed` drives the traffic over them (README.md, "What
/// the seed changes", says why).
const POPULATION_SEED: u64 = 2001;
const SEED_DATA: u64 = 1;
const SEED_VIEWS: u64 = 2;
const SEED_QUERIES: u64 = 3;
const SEED_TABLE_ROTATION: u64 = 4;
const SEED_CLIENT: u64 = 100;
const SEED_WRITE: u64 = 1_000_000;
const SEED_RECHECK: u64 = 2_000_000;
const SEED_VERIFY: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(u32),
    Write,
    Refresh,
}

pub struct Query {
    pub sql: String,
    /// The generator's block, kept for the oracle: the served rows come
    /// from the SQL text, the reference rows from this.
    pub expr: SpjgExpr,
}

/// What the read path needs and no op changes.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub engine: Arc<MatchingEngine>,
    pub view_ids: Vec<ViewId>,
    pub queries: Vec<Query>,
    /// One op list per client.
    pub ops: Vec<Vec<Op>>,
    /// Views the maintainer keeps incrementally (0 when not maintained).
    pub incremental_views: usize,
}

/// Base data and view contents.
pub enum Backend {
    /// Read-only workloads: exactly the views the set-up plan pass saw
    /// used are materialized.
    Static {
        db: Database,
        store: ViewStore,
        materialized: BTreeSet<ViewId>,
    },
    /// `mixed_rw_1k`: every view is registered with the maintainer, which
    /// owns the data.
    Maintained {
        maintainer: Maintainer,
        /// Seeded rotation of (table, column a write changes).
        write_tables: Vec<(TableId, usize)>,
        writes_done: u64,
    },
}

impl Backend {
    pub fn db(&self) -> &Database {
        match self {
            Backend::Static { db, .. } => db,
            Backend::Maintained { maintainer, .. } => maintainer.db(),
        }
    }

    /// The view contents `plan` scans. This is harness glue, timed as
    /// `bench.glue`: a product serve path would own it.
    pub fn views_for(&self, plan: &PhysicalPlan) -> Cow<'_, ViewStore> {
        match self {
            Backend::Static {
                store,
                materialized,
                ..
            } => {
                for view in layers::views_used(plan) {
                    assert!(
                        materialized.contains(&view),
                        "plan scans {view}, which set-up did not materialize"
                    );
                }
                Cow::Borrowed(store)
            }
            Backend::Maintained { maintainer, .. } => {
                let mut store = ViewStore::new();
                for view in layers::views_used(plan) {
                    store.put(view, layers::view_contents(maintainer, view).to_vec());
                }
                Cow::Owned(store)
            }
        }
    }

    /// Rows under `plan`'s scan leaves, and (view scans, all scans).
    pub fn scan_counts(&self, plan: &PhysicalPlan) -> (u64, u64, u64) {
        match plan {
            PhysicalPlan::TableScan { table } => (self.db().row_count(*table) as u64, 0, 1),
            PhysicalPlan::ViewScan { view } => {
                let rows = match self {
                    Backend::Static { store, .. } => store.rows(*view).len(),
                    Backend::Maintained { maintainer, .. } => {
                        layers::view_contents(maintainer, *view).len()
                    }
                };
                (rows as u64, 1, 1)
            }
            _ => plan.children().iter().fold((0, 0, 0), |acc, child| {
                let c = self.scan_counts(child);
                (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2)
            }),
        }
    }

    /// The next write: one row of the next table in the rotation leaves
    /// and comes back with one non-key column taken from another row, so
    /// keys stay unique and foreign keys stay satisfied.
    pub fn next_delta(&mut self, seed: u64) -> TableDelta {
        let Backend::Maintained {
            maintainer,
            write_tables,
            writes_done,
        } = self
        else {
            panic!("writes need the maintained backend");
        };
        let (table, col) = write_tables[*writes_done as usize % write_tables.len()];
        let mut rng = Rng::new(mix(seed, SEED_WRITE + *writes_done));
        *writes_done += 1;
        let rows = maintainer.db().rows(table);
        let old: Row = rows[rng.below(rows.len())].clone();
        let mut new = old.clone();
        new[col] = rows[rng.below(rows.len())][col].clone();
        TableDelta {
            table,
            inserts: vec![new],
            deletes: vec![old],
        }
    }

    pub fn maintainer_mut(&mut self) -> &mut Maintainer {
        match self {
            Backend::Maintained { maintainer, .. } => maintainer,
            Backend::Static { .. } => panic!("writes need the maintained backend"),
        }
    }

    pub fn writes_done(&self) -> u64 {
        match self {
            Backend::Maintained { writes_done, .. } => *writes_done,
            Backend::Static { .. } => 0,
        }
    }
}

/// The read the verification pass re-checks after write number `write`.
pub fn recheck_query(ctx: &Ctx, write: u64) -> usize {
    Rng::new(mix(ctx.seed, SEED_RECHECK + write)).below(ctx.queries.len())
}

/// The distinct queries the verification pass checks.
pub fn verified_queries(ctx: &Ctx) -> impl Iterator<Item = usize> {
    let stride = ctx.spec.verify_stride;
    let first = Rng::new(mix(ctx.seed, SEED_VERIFY)).below(stride);
    (first..ctx.queries.len()).step_by(stride)
}

/// Seconds each set-up step took; they add up to `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_gen_s: f64,
    pub workload_gen_s: f64,
    pub sql_render_s: f64,
    pub register_views_s: f64,
    pub plan_pass_s: f64,
    pub materialize_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.data_gen_s
            + self.workload_gen_s
            + self.sql_render_s
            + self.register_views_s
            + self.plan_pass_s
            + self.materialize_s
    }
}

pub struct World {
    pub ctx: Ctx,
    pub backend: Backend,
    pub setup: SetupTimes,
}

/// Times set-up steps at the reference pace (pace.rs).
struct Lap {
    pace: Pace,
    before: f64,
    started: Instant,
}

impl Lap {
    fn start() -> Self {
        let mut pace = Pace::new();
        Lap {
            before: pace.reading(),
            pace,
            started: Instant::now(),
        }
    }

    /// Seconds since the last call, scaled; starts the next lap.
    fn end(&mut self) -> f64 {
        let raw = self.started.elapsed().as_secs_f64();
        let after = self.pace.reading();
        let scaled = raw * pace::scale(self.before, after);
        self.before = after;
        self.started = Instant::now();
        scaled
    }
}

pub fn setup(spec: Spec, seed: u64) -> World {
    let mut times = SetupTimes::default();
    let mut lap = Lap::start();

    let db = layers::generate_data(spec.scale, mix(POPULATION_SEED, SEED_DATA));
    times.data_gen_s = lap.end();

    let views = layers::generate_views(&db.catalog, spec.views, mix(POPULATION_SEED, SEED_VIEWS));
    let exprs = layers::generate_queries(
        &db.catalog,
        spec.queries,
        mix(POPULATION_SEED, SEED_QUERIES),
    );
    times.workload_gen_s = lap.end();

    let queries: Vec<Query> = exprs
        .into_iter()
        .map(|expr| Query {
            sql: layers::render_sql(&expr, &db.catalog),
            expr,
        })
        .collect();
    times.sql_render_s = lap.end();

    let engine = layers::new_engine(db.catalog.clone(), spec.maintained());
    let view_ids = layers::register_views(&engine, views);
    times.register_views_s = lap.end();

    let mut incremental_views = 0;
    let backend = if spec.maintained() {
        let mut maintainer = layers::new_maintainer(db);
        let mut tables = BTreeSet::new();
        for &id in &view_ids {
            let def = layers::view_def(&engine, id);
            tables.extend(def.expr.tables.iter().copied());
            incremental_views += layers::maintain_view(&mut maintainer, id, &def) as usize;
            times.materialize_s += lap.end();
        }
        Backend::Maintained {
            write_tables: write_rotation(maintainer.db(), &tables, seed),
            maintainer,
            writes_done: 0,
        }
    } else {
        // Plan every distinct query once and materialize exactly the
        // views those plans scan; materializing all of them would take
        // minutes and no read would touch the rest.
        let planner = layers::new_planner(&engine);
        let mut used = BTreeSet::new();
        for q in &queries {
            let block = layers::bind(layers::parse(&layers::lex(&q.sql)), &db.catalog);
            used.extend(layers::views_used(&layers::optimize(&planner, &block).plan));
            times.plan_pass_s += lap.end();
        }
        let mut store = ViewStore::new();
        for &id in &used {
            store.put(id, layers::materialize(&db, &layers::view_def(&engine, id)));
            times.materialize_s += lap.end();
        }
        Backend::Static {
            db,
            store,
            materialized: used,
        }
    };

    let ops = (0..spec.clients)
        .map(|client| op_list(&spec, seed, client))
        .collect();
    World {
        ctx: Ctx {
            spec,
            seed,
            engine,
            view_ids,
            queries,
            ops,
            incremental_views,
        },
        backend,
        setup: times,
    }
}

fn op_list(spec: &Spec, seed: u64, client: usize) -> Vec<Op> {
    // Every shape reads all the distinct queries, in a seeded order of
    // the client's own: every seed reads the same population.
    let mut order: Vec<u32> = (0..spec.queries as u32).collect();
    Rng::new(mix(seed, SEED_CLIENT + client as u64)).shuffle(&mut order);
    match spec.shape {
        Shape::RoundRobin => order.into_iter().map(Op::Read).collect(),
        Shape::Windows { window, rounds } => {
            let mut ops = Vec::with_capacity(order.len() * rounds);
            for chunk in order.chunks(window) {
                for _ in 0..rounds {
                    ops.extend(chunk.iter().map(|&q| Op::Read(q)));
                }
            }
            ops
        }
        Shape::Mixed {
            writes,
            reads_per_write,
            refresh_every,
        } => {
            let mut reads = order.into_iter().cycle().map(Op::Read);
            let mut ops = Vec::new();
            for w in 1..=writes {
                ops.extend(reads.by_ref().take(reads_per_write));
                ops.push(Op::Write);
                if w % refresh_every == 0 {
                    ops.push(Op::Refresh);
                }
            }
            ops
        }
    }
}

/// The tables writes rotate over, in seeded order: those some view reads
/// and that have a numeric column outside every key and foreign key.
fn write_rotation(
    db: &Database,
    read_by_views: &BTreeSet<TableId>,
    seed: u64,
) -> Vec<(TableId, usize)> {
    let catalog = &db.catalog;
    let mut rotation: Vec<(TableId, usize)> = read_by_views
        .iter()
        .filter(|&&table| db.row_count(table) > 0)
        .filter_map(|&table| Some((table, layers::writable_column(catalog, table)?)))
        .collect();
    assert!(!rotation.is_empty(), "some table must be writable");
    Rng::new(mix(seed, SEED_TABLE_ROTATION)).shuffle(&mut rotation);
    rotation
}
