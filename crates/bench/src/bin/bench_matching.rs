//! View-matching latency and throughput across view-set sizes,
//! persisted as a machine-readable trajectory at the repo root.
//!
//! ```text
//! cargo run -p mv-bench --release --bin bench_matching
//! ```
//!
//! appends to `BENCH_matching.json` a trajectory entry with one record
//! per (view count, mode, workload): view count, query count, worker
//! threads, p50/p95/p99 per-query match latency in microseconds, matching
//! throughput in queries/second, the filter-tree pruning ratio
//! (candidates examined / catalog size), and the substitute-cache hit
//! rate (`null` for cache-off runs). Earlier entries in the file are
//! kept, so the file accumulates a performance trajectory across runs.
//! The row schema is frozen ([`RUN_FIELDS`]): an existing `--out` file
//! that does not parse to it is refused (exit 2) before anything is
//! measured or written.
//!
//! Serial records drive `find_substitutes` one query at a time.
//! Uniform-workload engines run with the substitute cache off (the
//! measurement loop repeats each query, which would otherwise measure
//! pure cache hits); the `zipf` records measure
//! exactly that repeated-template regime instead — a skewed stream over
//! ~50 query templates, cold (cache off) vs warm (default cache,
//! primed). The `zipf-churn` record is the online-catalog measurement:
//! matcher threads replay the warm skewed stream while a registration
//! thread concurrently adds views over a table disjoint from every
//! template, so per-table cache invalidation must leave the warm entries
//! alone — the record carries throughput under churn and the retained
//! hit rate (the engine's global-epoch ancestor scored ~0% here).
//!
//! ```text
//! cargo run -p mv-bench --release --bin bench_matching -- \
//!     [--sizes 100,1000,10000,100000] [--queries N] [--out PATH] \
//!     [--strict] [--prove-smoke N]
//! ```
//!
//! `--prove-smoke N` additionally runs the `mv-prove` bounded
//! equivalence checker over the first N substitutes the matcher
//! produces at the largest scale point (k=2) and records the outcome
//! counts and wall time as the entry's `mode: "prove"` row, so the
//! prove cost rides along with the matching trajectory.
//!
//! Every run also emits `mode: "maintain"` / `workload: "churn-writes"`
//! rows at 1,000 and 10,000 views (one row at the largest `--sizes`
//! point when that is smaller): the views are registered with
//! the `mv-maintain` incremental-maintenance driver over tiny generated
//! data, insert/delete delta rounds stream through the base tables, and
//! the row records the mean maintenance cost per delta
//! (`maintain_us_per_delta`, the `apply_with_engine` wall clock) and the
//! fraction of substitutes served with a `Fresh` stamp when the skewed
//! query stream replays right after each maintenance round
//! (`fresh_serving_rate` — recompute-fallback views are stale at that
//! point and drag the rate below 1.0 honestly; they refresh between
//! rounds).
//!
//! Every matching row drives `find_substitutes`, the one way into the
//! matcher; the `zipf-churn` rows are the multi-threaded ones (clients
//! calling it from their own threads). Rows with `mode: "batched"` in
//! older entries of the file measured a batch entry point that no longer
//! exists (DESIGN.md §13.4). Uniform-serial rows
//! additionally carry `rss_bytes_per_view` (resident-set growth of the
//! bulk registration, Linux only) and `bytes_per_view_arena` (the
//! descriptor store's pointer tables, deterministic); both are `null` on
//! rows that do not measure registration.
//!
//! `--strict` turns the built-in regression assertions into the exit
//! code: the run fails if the warm hit rate retained across the
//! disjoint-table churn drops below 90 %, or — ratcheting against the
//! best prior trajectory entry at the same scale — if memory per view
//! (descriptor-store bytes at every scale, RSS from 1,000 views up)
//! exceeds 1.25x the prior best. No wall-clock column is gated: the best
//! prior row was recorded at whatever speed its machine ran that day, so
//! a time ratchet against it cannot tell a change from the box. The time
//! columns are recorded all the same; a timing is decided by paired
//! `bench_serve` runs of parent and change.

use mv_bench::json::Json;
use mv_bench::{build_workload, engine_with, Workload, DATA_SEED};
use mv_catalog::TableId;
use mv_core::{MatchConfig, MatchStats, MatchingEngine};
use mv_data::{generate_tpch, TpchScale};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Args {
    sizes: Vec<usize>,
    queries: usize,
    out: String,
    strict: bool,
    prove_smoke: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![100, 1000, 10_000, 100_000],
        queries: 200,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json").to_string(),
        strict: false,
        prove_smoke: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} requires a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--sizes" => {
                args.sizes = value(i)
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--sizes takes a comma-separated list of view counts");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                i += 2;
            }
            "--queries" => {
                args.queries = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--queries requires a positive number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                args.out = value(i);
                i += 2;
            }
            "--strict" => {
                args.strict = true;
                i += 1;
            }
            "--prove-smoke" => {
                args.prove_smoke = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--prove-smoke requires a number of substitutes");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.sizes.is_empty() || args.queries == 0 {
        eprintln!("--sizes and --queries must be non-empty");
        std::process::exit(2);
    }
    args
}

/// One measured (view count, mode, workload) record.
struct Record {
    views: usize,
    mode: &'static str,
    threads: usize,
    queries: usize,
    /// `uniform`: the full distinct-query list, cache off. `zipf-cold` /
    /// `zipf-warm`: the skewed repeated-template stream, cache off vs on.
    /// `zipf-churn`: the warm stream with a concurrent registration
    /// thread churning a disjoint table.
    workload: &'static str,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    throughput_qps: f64,
    /// Filter-tree pruning ratio: candidates examined / views available,
    /// averaged over every `find_substitutes` call of the run (the paper
    /// reports ~0.3 % — §5.2).
    candidate_fraction: f64,
    /// Substitute-cache hit rate over the measured run; `None` when the
    /// cache is off.
    cache_hit_rate: Option<f64>,
    /// Resident-set growth of registering the catalog, per view (from
    /// `/proc/self/status`; `None` off Linux or on non-registration
    /// rows). Carried by the uniform-serial row of each scale point.
    rss_bytes_per_view: Option<f64>,
    /// Descriptor-store footprint per view
    /// (`MatchingEngine::arena_bytes` / views) — deterministic, unlike
    /// RSS, so the strict memory gate leans on it.
    bytes_per_view_arena: Option<f64>,
}

/// Current VmRSS in bytes, `None` where `/proc` is unavailable.
fn rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

fn percentile_us(latencies: &mut [Duration], q: f64) -> f64 {
    latencies.sort_unstable();
    let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
    latencies[idx].as_secs_f64() * 1e6
}

/// Repetitions that keep one measurement loop around `target` wall-clock,
/// from a single calibration run.
fn calibrate_reps(once: Duration, target: Duration) -> usize {
    if once.is_zero() {
        return 1000;
    }
    (target.as_secs_f64() / once.as_secs_f64()).ceil() as usize
}

const MEASURE_TARGET: Duration = Duration::from_millis(300);

/// Drive `find_substitutes` one query at a time; per-query latencies and
/// end-to-end throughput.
fn run_serial(engine: &MatchingEngine, queries: &[SpjgExpr]) -> (Vec<Duration>, f64) {
    let once = {
        let t = Instant::now();
        for q in queries {
            std::hint::black_box(engine.find_substitutes(q));
        }
        t.elapsed()
    };
    let reps = calibrate_reps(once, MEASURE_TARGET);
    let mut latencies = Vec::with_capacity(queries.len() * reps);
    let started = Instant::now();
    for _ in 0..reps {
        for q in queries {
            let t = Instant::now();
            std::hint::black_box(engine.find_substitutes(q));
            latencies.push(t.elapsed());
        }
    }
    let total = started.elapsed();
    let qps = (queries.len() * reps) as f64 / total.as_secs_f64();
    (latencies, qps)
}

/// The uniform-serial row of one scale point, cache off: the measurement
/// loop repeats each distinct query, so an enabled cache would turn it
/// into a cache-hit benchmark (the zipf records measure that regime
/// deliberately).
fn measure(w: &Workload, views: usize) -> Record {
    let cfg = MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };

    // Registration cost per view: RSS growth around the bulk add (noisy,
    // allocator-reuse-dependent, but what an operator sees) plus the
    // deterministic descriptor-store share.
    let rss_before = rss_bytes();
    let engine = engine_with(w, views, cfg);
    let rss_per_view = rss_before
        .zip(rss_bytes())
        .map(|(before, after)| ((after - before).max(0.0)) / views as f64);
    let (mut lat, qps) = run_serial(&engine, &w.queries);
    Record {
        views,
        mode: "serial",
        threads: 1,
        queries: w.queries.len(),
        workload: "uniform",
        p50_us: percentile_us(&mut lat, 0.50),
        p95_us: percentile_us(&mut lat, 0.95),
        p99_us: percentile_us(&mut lat, 0.99),
        throughput_qps: qps,
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: None,
        rss_bytes_per_view: rss_per_view,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    }
}

/// Number of distinct query templates in the skewed stream.
const ZIPF_TEMPLATES: usize = 50;

/// Views the registration thread adds during the churn measurement.
const CHURN_VIEWS: usize = 48;

/// Matcher threads racing the registration thread.
const CHURN_MATCHERS: usize = 2;

/// Deterministic splitmix64 step — the standard 64-bit mixer, inlined so
/// the bench needs no external RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A zipf-like skewed stream of `len` queries drawn from `templates`
/// with weight `1 / (rank + 1)` — the repeated-template regime of a
/// parameterized production workload, where a handful of hot shapes
/// dominate.
fn zipf_stream(templates: &[SpjgExpr], len: usize) -> Vec<SpjgExpr> {
    let weights: Vec<f64> = (0..templates.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state: u64 = 0x5EED_0F21_D15C_0B41;
    (0..len)
        .map(|_| {
            let mut x = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut pick = templates.len() - 1;
            for (i, wgt) in weights.iter().enumerate() {
                if x < *wgt {
                    pick = i;
                    break;
                }
                x -= wgt;
            }
            templates[pick].clone()
        })
        .collect()
}

/// Measure the skewed repeated-template stream cold (cache off) and warm
/// (default cache, primed with one pass over the templates), so the two
/// records differ only in the cache.
fn measure_zipf(w: &Workload, views: usize, stream: &[SpjgExpr]) -> (Record, Record) {
    let record = |mode: &'static str,
                  workload: &'static str,
                  lat: &mut [Duration],
                  qps: f64,
                  engine: &MatchingEngine,
                  hit_rate: Option<f64>| Record {
        views,
        mode,
        threads: 1,
        queries: stream.len(),
        workload,
        p50_us: percentile_us(lat, 0.50),
        p95_us: percentile_us(lat, 0.95),
        p99_us: percentile_us(lat, 0.99),
        throughput_qps: qps,
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: hit_rate,
        rss_bytes_per_view: None,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    };

    let cold_cfg = MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };
    let engine = engine_with(w, views, cold_cfg);
    let (mut lat, qps) = run_serial(&engine, stream);
    let cold = record("serial", "zipf-cold", &mut lat, qps, &engine, None);

    let engine = engine_with(w, views, MatchConfig::default());
    for q in &w.queries[..ZIPF_TEMPLATES.min(w.queries.len())] {
        std::hint::black_box(engine.find_substitutes(q));
    }
    engine.reset_stats();
    let (mut lat, qps) = run_serial(&engine, stream);
    let stats = engine.stats();
    let hit_rate = stats.cache_hit_rate();
    print_cache_line("zipf-warm", views, &stats);
    let warm = record(
        "serial",
        "zipf-warm",
        &mut lat,
        qps,
        &engine,
        Some(hit_rate),
    );
    (cold, warm)
}

/// The substitute cache's hit rate and evictions over a cached run, on
/// stderr.
fn print_cache_line(workload: &str, views: usize, stats: &MatchStats) {
    eprintln!(
        "{workload} at {views} views: cache hit rate {:.1}%, {} evictions",
        stats.cache_hit_rate() * 100.0,
        stats.cache_evictions
    );
}

/// Pick a churn table plus zipf templates disjoint from it: the table the
/// workload's queries reference least, and the first [`ZIPF_TEMPLATES`]
/// queries that never touch it. Registering views over that table while
/// those templates sit warm in the cache is exactly the disjoint-write
/// case per-table invalidation must not evict. Returns the templates and
/// the views the registration thread will add; `None` if every query
/// references every table (impossible for any real workload, but the
/// bench degrades gracefully rather than panicking).
fn churn_setup(w: &Workload) -> Option<(Vec<SpjgExpr>, Vec<ViewDef>)> {
    let n_tables = w.catalog.table_count();
    let mut refs = vec![0usize; n_tables];
    for q in &w.queries {
        let mut seen = vec![false; n_tables];
        for t in &q.tables {
            let i = t.0 as usize;
            if !seen[i] {
                seen[i] = true;
                refs[i] += 1;
            }
        }
    }
    let table = TableId(refs.iter().enumerate().min_by_key(|(_, c)| **c)?.0 as u32);
    let templates: Vec<SpjgExpr> = w
        .queries
        .iter()
        .filter(|q| !q.tables.contains(&table))
        .take(ZIPF_TEMPLATES)
        .cloned()
        .collect();
    if templates.is_empty() {
        return None;
    }
    // Column 0 exists in every TPC-H table; vary the range bound so each
    // registration is a distinct view over the churn table.
    let views = (0..CHURN_VIEWS)
        .map(|k| {
            let expr = SpjgExpr::spj(
                vec![table],
                BoolExpr::cmp(S::col(ColRef::new(0, 0)), CmpOp::Ge, S::lit(k as i64)),
                vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "k0")],
            );
            ViewDef::new(format!("churn_{k}"), expr)
        })
        .collect();
    Some((templates, views))
}

/// The online-catalog measurement: [`CHURN_MATCHERS`] threads replay the
/// warm skewed stream against a primed engine while one registration
/// thread concurrently adds the disjoint-table views, paced a couple of
/// milliseconds apart so the publications land mid-stream. Throughput is
/// queries matched per wall-clock second across the whole churn window;
/// the hit rate is what the cache *retained* — with per-table
/// invalidation the disjoint registrations must not evict the warm
/// entries, so anything much below 1.0 is a regression.
fn measure_churn(
    w: &Workload,
    views: usize,
    templates: &[SpjgExpr],
    stream: &[SpjgExpr],
    churn: &[ViewDef],
) -> Record {
    let engine = engine_with(w, views, MatchConfig::default());
    for q in templates {
        std::hint::black_box(engine.find_substitutes(q));
    }
    engine.reset_stats();

    let done = AtomicBool::new(false);
    let matched = AtomicU64::new(0);
    let started = Instant::now();
    let mut lat = std::thread::scope(|scope| {
        scope.spawn(|| {
            for v in churn {
                engine.add_view(v.clone()).expect("churn views are valid");
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
        let matchers: Vec<_> = (0..CHURN_MATCHERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut lat = Vec::new();
                    // Keep replaying until the writer finishes, then one
                    // final full pass over the settled catalog.
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        for q in stream {
                            let t = Instant::now();
                            std::hint::black_box(engine.find_substitutes(q));
                            lat.push(t.elapsed());
                        }
                        matched.fetch_add(stream.len() as u64, Ordering::Relaxed);
                        if finished {
                            break;
                        }
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::new();
        for m in matchers {
            all.extend(m.join().expect("matcher thread panicked"));
        }
        all
    });
    let total = started.elapsed();
    let stats = engine.stats();
    print_cache_line("zipf-churn", views, &stats);
    Record {
        views,
        mode: "mixed",
        threads: CHURN_MATCHERS,
        queries: matched.load(Ordering::Relaxed) as usize,
        workload: "zipf-churn",
        p50_us: percentile_us(&mut lat, 0.50),
        p95_us: percentile_us(&mut lat, 0.95),
        p99_us: percentile_us(&mut lat, 0.99),
        throughput_qps: matched.load(Ordering::Relaxed) as f64 / total.as_secs_f64(),
        candidate_fraction: stats.candidate_fraction(),
        cache_hit_rate: Some(stats.cache_hit_rate()),
        rss_bytes_per_view: None,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    }
}

fn round(v: f64, digits: u32) -> f64 {
    let m = 10f64.powi(digits as i32);
    (v * m).round() / m
}

/// The frozen run-row schema: every row of the trajectory file carries
/// exactly these fields, in this order, so the file diffs cleanly.
const RUN_FIELDS: [&str; 19] = [
    "views",
    "mode",
    "workload",
    "threads",
    "queries",
    "p50_match_latency_us",
    "p95_match_latency_us",
    "p99_match_latency_us",
    "throughput_qps",
    "candidate_fraction",
    "cache_hit_rate",
    "rss_bytes_per_view",
    "bytes_per_view_arena",
    "prove_wall_ms",
    "proved",
    "refuted",
    "inconclusive",
    "maintain_us_per_delta",
    "fresh_serving_rate",
];

fn record_json(r: &Record) -> Json {
    Json::Obj(vec![
        ("views".into(), Json::Num(r.views as f64)),
        ("mode".into(), Json::Str(r.mode.into())),
        ("workload".into(), Json::Str(r.workload.into())),
        ("threads".into(), Json::Num(r.threads as f64)),
        ("queries".into(), Json::Num(r.queries as f64)),
        ("p50_match_latency_us".into(), Json::Num(round(r.p50_us, 2))),
        ("p95_match_latency_us".into(), Json::Num(round(r.p95_us, 2))),
        ("p99_match_latency_us".into(), Json::Num(round(r.p99_us, 2))),
        (
            "throughput_qps".into(),
            Json::Num(round(r.throughput_qps, 1)),
        ),
        (
            "candidate_fraction".into(),
            Json::Num(round(r.candidate_fraction, 5)),
        ),
        (
            "cache_hit_rate".into(),
            r.cache_hit_rate
                .map(|h| Json::Num(round(h, 4)))
                .unwrap_or(Json::Null),
        ),
        (
            "rss_bytes_per_view".into(),
            r.rss_bytes_per_view
                .map(|b| Json::Num(round(b, 1)))
                .unwrap_or(Json::Null),
        ),
        (
            "bytes_per_view_arena".into(),
            r.bytes_per_view_arena
                .map(|b| Json::Num(round(b, 1)))
                .unwrap_or(Json::Null),
        ),
        // Prove columns belong to the dedicated `mode: "prove"` row,
        // maintenance columns to the `mode: "maintain"` row.
        ("prove_wall_ms".into(), Json::Null),
        ("proved".into(), Json::Null),
        ("refuted".into(), Json::Null),
        ("inconclusive".into(), Json::Null),
        ("maintain_us_per_delta".into(), Json::Null),
        ("fresh_serving_rate".into(), Json::Null),
    ])
}

/// What one `--prove-smoke N` pass measured (structured, not prose: the
/// trajectory's `mode: "prove"` row reads these fields).
struct ProveSmoke {
    views: usize,
    k: usize,
    proved: usize,
    refuted: usize,
    inconclusive: usize,
    wall_ms: u128,
}

/// The dedicated prove run row: matching-latency columns are `null`,
/// the four prove columns carry the measurements. `queries` records the
/// substitutes examined.
fn prove_run_json(s: &ProveSmoke) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(RUN_FIELDS.len());
    for &key in &RUN_FIELDS {
        let v = match key {
            "views" => Json::Num(s.views as f64),
            "mode" => Json::Str("prove".into()),
            "workload" => Json::Str("uniform".into()),
            "threads" => Json::Num(1.0),
            "queries" => Json::Num((s.proved + s.refuted + s.inconclusive) as f64),
            "prove_wall_ms" => Json::Num(s.wall_ms as f64),
            "proved" => Json::Num(s.proved as f64),
            "refuted" => Json::Num(s.refuted as f64),
            "inconclusive" => Json::Num(s.inconclusive as f64),
            _ => Json::Null,
        };
        fields.push((key.to_string(), v));
    }
    Json::Obj(fields)
}

/// The fields of one trajectory entry, in written order.
const ENTRY_FIELDS: [&str; 5] = ["unix_time", "queries", "threads", "note", "runs"];

/// Does `obj` carry exactly `fields`, in order?
fn has_fields(obj: &Json, fields: &[&str]) -> bool {
    matches!(obj, Json::Obj(kv) if kv.iter().map(|(k, _)| k.as_str()).eq(fields.iter().copied()))
}

/// The entries of an existing trajectory file. Anything that is not a
/// `"trajectory"` document whose entries and run rows carry exactly the
/// frozen field lists is an error: the caller must not overwrite a file
/// it cannot carry forward whole.
fn prior_entries(old: &str) -> Result<Vec<Json>, String> {
    let doc = Json::parse(old).map_err(|e| format!("not valid JSON ({e})"))?;
    let entries = doc
        .get("trajectory")
        .and_then(Json::as_arr)
        .ok_or("no \"trajectory\" array")?;
    for (i, entry) in entries.iter().enumerate() {
        let runs = match entry.get("runs").and_then(Json::as_arr) {
            Some(runs) if has_fields(entry, &ENTRY_FIELDS) => runs,
            _ => return Err(format!("entry {i} does not carry {ENTRY_FIELDS:?}")),
        };
        if let Some(j) = runs.iter().position(|run| !has_fields(run, &RUN_FIELDS)) {
            return Err(format!(
                "entry {i}, run {j} is not a {}-field row",
                RUN_FIELDS.len()
            ));
        }
    }
    Ok(entries.to_vec())
}

/// Best (smallest positive) prior value of `field` across every prior
/// entry's uniform-serial row at this scale point — the baseline the
/// strict memory gates ratchet against. `None` when no
/// prior entry ever recorded the field at this scale (first run at a
/// new scale passes trivially and becomes the baseline). Zero readings
/// are excluded: a 0 B/view RSS delta is allocator reuse, not a real
/// floor any future run could stay under.
fn best_prior(entries: &[Json], views: usize, field: &str) -> Option<f64> {
    entries
        .iter()
        .filter_map(|e| e.get("runs").and_then(Json::as_arr))
        .flatten()
        .filter(|r| {
            r.get("views").and_then(Json::as_f64) == Some(views as f64)
                && r.get("mode").and_then(Json::as_str) == Some("serial")
                && r.get("workload").and_then(Json::as_str) == Some("uniform")
        })
        .filter_map(|r| r.get(field).and_then(Json::as_f64))
        .filter(|&v| v > 0.0)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        })
}

/// The full trajectory document, oldest entry first.
fn trajectory_json(entries: Vec<Json>) -> Json {
    Json::Obj(vec![
        (
            "benchmark".into(),
            Json::Str("view-matching latency and throughput".into()),
        ),
        (
            "command".into(),
            Json::Str("cargo run -p mv-bench --release --bin bench_matching".into()),
        ),
        ("trajectory".into(), Json::Arr(entries)),
    ])
}

fn entry_json(records: &[Record], args: &Args, extra_runs: Vec<Json>) -> Json {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let note = String::from(
        "every matching row drives find_substitutes; prove smoke runs the \
         compiled-program prover (structured prove row)",
    );
    let mut runs: Vec<Json> = records.iter().map(record_json).collect();
    runs.extend(extra_runs);
    Json::Obj(vec![
        ("unix_time".into(), Json::Num(unix_time as f64)),
        ("queries".into(), Json::Num(args.queries as f64)),
        (
            "threads".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("note".into(), Json::Str(note)),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Run the `mv-prove` bounded equivalence checker over the first `n`
/// substitutes the matcher produces at the `views` scale point. The
/// result lands in the trajectory as a dedicated `mode: "prove"` row
/// (the four structured prove columns).
fn prove_smoke(w: &Workload, views: usize, n: usize) -> ProveSmoke {
    let engine = engine_with(
        w,
        views,
        MatchConfig {
            substitute_cache_capacity: 0,
            prove_budget: 0,
            ..MatchConfig::default()
        },
    );
    let checks = engine.check_constraints();
    let ctx = mv_prove::ProveCtx::new(&w.catalog, &checks);
    // A smoke, not a gate: a modest per-proof budget keeps the wall time
    // proportionate (mv-lint --prove carries the exhaustive budget).
    let cfg = mv_prove::ProveConfig {
        max_databases: 500_000,
        ..mv_prove::ProveConfig::default()
    };
    let views_guard = engine.views();
    let mut smoke = ProveSmoke {
        views,
        k: cfg.k,
        proved: 0,
        refuted: 0,
        inconclusive: 0,
        wall_ms: 0,
    };
    let started = Instant::now();
    'outer: for query in &w.queries {
        for (id, sub) in engine.find_substitutes(query) {
            if smoke.proved + smoke.refuted + smoke.inconclusive == n {
                break 'outer;
            }
            let outcome = mv_prove::prove(&ctx, query, &views_guard.get(id).expr, &sub, &cfg);
            if outcome.is_proved() {
                smoke.proved += 1;
            } else if outcome.is_refuted() {
                smoke.refuted += 1;
            } else {
                smoke.inconclusive += 1;
            }
        }
    }
    smoke.wall_ms = started.elapsed().as_millis();
    smoke
}

/// Delta rounds the maintenance measurement drives.
const MAINTAIN_ROUNDS: usize = 32;

/// View counts of the maintenance rows: registration materializes every
/// view over the tiny generated data, so the rows measure two fixed
/// catalogs (capped at the largest `--sizes` point) rather than scaling
/// with `--sizes`.
const MAINTAIN_SIZES: [usize; 2] = [1000, 10_000];

/// What the churn-with-writes maintenance measurement produced.
struct MaintainRun {
    views: usize,
    deltas: usize,
    serving_probes: usize,
    us_per_delta: f64,
    fresh_serving_rate: f64,
    incremental: usize,
    recompute: usize,
    /// Of the (view, round) visits — a view reading the written table —
    /// the share the round left unchanged ([`DeltaReport::unchanged`]).
    ///
    /// [`DeltaReport::unchanged`]: mv_maintain::DeltaReport::unchanged
    unchanged_share: f64,
}

/// Register the first `views` workload views with the incremental-
/// maintenance driver over tiny generated base data, then stream
/// [`MAINTAIN_ROUNDS`] one-in/one-out delta rounds through the base
/// tables the views read. Per round: `apply_with_engine` is the timed
/// maintenance cost; the skewed query stream then replays against the
/// freshness-stamping engine (incremental views restamped by the round
/// are `Fresh`, recompute-fallback views are still stale) before the
/// dirty views refresh for the next round.
fn measure_maintain(w: &Workload, views: usize, stream: &[SpjgExpr]) -> MaintainRun {
    let engine = engine_with(w, views, MatchConfig::default());
    let (db, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
    let mut maintainer = Maintainer::new(db);
    let guard = engine.views();
    let mut tables: Vec<TableId> = Vec::new();
    let (mut incremental, mut recompute) = (0usize, 0usize);
    for (id, def) in guard.iter() {
        match maintainer.register(id, def) {
            MaintainStrategy::Incremental => incremental += 1,
            MaintainStrategy::Recompute => recompute += 1,
        }
        tables.extend(def.expr.tables.iter().copied());
    }
    tables.sort_unstable();
    tables.dedup();
    let mut maintain_wall = Duration::ZERO;
    let mut deltas = 0usize;
    let (mut fresh, mut served) = (0u64, 0u64);
    let mut serving_probes = 0usize;
    let (mut visits, mut unchanged) = (0usize, 0usize);
    for round in 0..MAINTAIN_ROUNDS {
        let Some(&table) = tables.get(round % tables.len().max(1)) else {
            break;
        };
        let rows = maintainer.db().rows(table);
        if rows.is_empty() {
            continue;
        }
        let delta = TableDelta {
            table,
            inserts: vec![rows[(round + 1) % rows.len()].clone()],
            deletes: vec![rows[round % rows.len()].clone()],
        };
        let t = Instant::now();
        let done = maintainer.apply_with_engine(&delta, &engine);
        maintain_wall += t.elapsed();
        visits += done.maintained + done.marked_dirty;
        unchanged += done.unchanged;
        deltas += 1;
        for q in stream {
            serving_probes += 1;
            for (_, sub) in engine.find_substitutes(q) {
                served += 1;
                if sub.freshness.is_fresh() {
                    fresh += 1;
                }
            }
        }
        for (id, _) in guard.iter() {
            if maintainer.is_dirty(id) {
                maintainer.refresh_with_engine(id, &engine);
            }
        }
    }
    MaintainRun {
        views,
        deltas,
        serving_probes,
        us_per_delta: if deltas == 0 {
            0.0
        } else {
            maintain_wall.as_secs_f64() * 1e6 / deltas as f64
        },
        fresh_serving_rate: if served == 0 {
            1.0
        } else {
            fresh as f64 / served as f64
        },
        incremental,
        recompute,
        unchanged_share: if visits == 0 {
            0.0
        } else {
            unchanged as f64 / visits as f64
        },
    }
}

/// The dedicated maintenance run row: matching-latency and prove columns
/// are `null`, `queries` records the serving probes driven between
/// rounds, and the two maintenance columns carry the measurements.
fn maintain_run_json(m: &MaintainRun) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(RUN_FIELDS.len());
    for &key in &RUN_FIELDS {
        let v = match key {
            "views" => Json::Num(m.views as f64),
            "mode" => Json::Str("maintain".into()),
            "workload" => Json::Str("churn-writes".into()),
            "threads" => Json::Num(1.0),
            "queries" => Json::Num(m.serving_probes as f64),
            "maintain_us_per_delta" => Json::Num(round(m.us_per_delta, 2)),
            "fresh_serving_rate" => Json::Num(round(m.fresh_serving_rate, 4)),
            _ => Json::Null,
        };
        fields.push((key.to_string(), v));
    }
    Json::Obj(fields)
}

fn main() {
    let args = parse_args();
    // Prior entries serve double duty: the strict gates ratchet against
    // their best recorded values, and the new entry appends after them.
    // A missing file starts a trajectory; one this bench cannot carry
    // forward is refused before it could be overwritten.
    let prior = match std::fs::read_to_string(&args.out) {
        Ok(old) => prior_entries(&old).unwrap_or_else(|e| {
            eprintln!("{} is not a bench_matching trajectory: {e}", args.out);
            std::process::exit(2);
        }),
        Err(_) => Vec::new(),
    };

    let max_views = args.sizes.iter().copied().max().unwrap();
    eprintln!(
        "building workload: {max_views} views, {} queries ...",
        args.queries
    );
    let w = build_workload(max_views, args.queries);

    let stream = zipf_stream(
        &w.queries[..ZIPF_TEMPLATES.min(w.queries.len())],
        args.queries,
    );
    let churn = churn_setup(&w);
    let churn_stream = churn
        .as_ref()
        .map(|(templates, _)| zipf_stream(templates, args.queries));

    let mut records = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    println!(
        "| views | workload | mode | threads | p50 (us) | p95 (us) | p99 (us) | \
         throughput (q/s) | cand. frac | hit rate | arena B/view | speedup |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let print_record = |r: &Record, speedup: Option<f64>| {
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.0} | {:.3}% | {} | {} | {} |",
            r.views,
            r.workload,
            r.mode,
            r.threads,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.throughput_qps,
            r.candidate_fraction * 100.0,
            r.cache_hit_rate
                .map(|h| format!("{:.1}%", h * 100.0))
                .unwrap_or_else(|| "-".to_string()),
            r.bytes_per_view_arena
                .map(|b| format!("{b:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            speedup
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        );
    };
    for &views in &args.sizes {
        let serial = measure(&w, views);
        // Memory-per-view gates: the descriptor-store share is deterministic
        // (tight 1.25x tolerance); RSS is allocator- and noise-dependent
        // but is what actually bounds catalog scale, so it gets the same
        // tolerance against the *best* prior run.
        if let (Some(base), Some(now)) = (
            best_prior(&prior, views, "bytes_per_view_arena"),
            serial.bytes_per_view_arena,
        ) {
            if now > 1.25 * base {
                failures.push(format!(
                    "at {views} views the descriptor store costs {now:.0} B/view, more than \
                     1.25x the best prior run ({base:.0} B/view)"
                ));
            }
        }
        // RSS only gates scale points with enough registrations for the
        // reading to rise above page granularity and allocator reuse: at
        // 100 views the whole delta is a few hundred KB, and the prior
        // trajectory shows it oscillating well past the tolerance on an
        // unchanged build.
        if let (Some(base), Some(now)) = (
            best_prior(&prior, views, "rss_bytes_per_view"),
            serial.rss_bytes_per_view.filter(|_| views >= 1000),
        ) {
            if now > 1.25 * base {
                failures.push(format!(
                    "at {views} views registration grows RSS by {now:.0} B/view, more than \
                     1.25x the best prior run ({base:.0} B/view)"
                ));
            }
        }
        print_record(&serial, None);
        records.push(serial);

        let (cold, warm) = measure_zipf(&w, views, &stream);
        let warm_speedup = warm.throughput_qps / cold.throughput_qps;
        print_record(&cold, None);
        print_record(&warm, Some(warm_speedup));
        records.push(cold);
        records.push(warm);

        if let (Some((templates, churn_views)), Some(churn_stream)) = (&churn, &churn_stream) {
            let under_churn = measure_churn(&w, views, templates, churn_stream, churn_views);
            let retained = under_churn.cache_hit_rate.unwrap_or(0.0);
            if retained < 0.9 {
                failures.push(format!(
                    "at {views} views the warm hit rate retained across a disjoint-table \
                     registration is {:.1}% (floor: 90%)",
                    retained * 100.0
                ));
            }
            print_record(&under_churn, None);
            records.push(under_churn);
        }
    }

    let mut extra_runs = Vec::new();
    if args.prove_smoke > 0 {
        let smoke = prove_smoke(&w, max_views, args.prove_smoke);
        eprintln!(
            "prove smoke at {} views: {} proved / {} refuted / {} inconclusive at k={} \
             in {} ms",
            smoke.views, smoke.proved, smoke.refuted, smoke.inconclusive, smoke.k, smoke.wall_ms
        );
        extra_runs.push(prove_run_json(&smoke));
    }

    // The churn-with-writes maintenance rows, at fixed scales so
    // registration stays proportionate.
    let mut m_sizes: Vec<usize> = MAINTAIN_SIZES.iter().map(|&m| m.min(max_views)).collect();
    m_sizes.dedup();
    for m_views in m_sizes {
        let maintain = measure_maintain(&w, m_views, &stream);
        eprintln!(
            "maintenance at {} views ({} incremental / {} recompute): {:.1} us/delta over {} \
             deltas, {:.1}% of view visits unchanged, {:.1}% of substitutes served fresh",
            maintain.views,
            maintain.incremental,
            maintain.recompute,
            maintain.us_per_delta,
            maintain.deltas,
            maintain.unchanged_share * 100.0,
            maintain.fresh_serving_rate * 100.0
        );
        extra_runs.push(maintain_run_json(&maintain));
    }

    if failures.is_empty() {
        eprintln!("regression check: PASS (churn hit-rate retention and memory ratchets)");
    } else {
        for f in &failures {
            eprintln!("regression check: FAIL — {f}");
        }
    }

    let mut entries = prior;
    let appended = !entries.is_empty();
    entries.push(entry_json(&records, &args, extra_runs));
    let body = trajectory_json(entries).to_pretty();
    std::fs::write(&args.out, &body).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    eprintln!(
        "{} {}",
        if appended { "appended to" } else { "wrote" },
        args.out
    );
    if args.strict && !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_baseline_is_best_prior_uniform_serial_row() {
        // The ratchet readers only look at the fields they name, so
        // abbreviated rows do here.
        let doc = Json::parse(
            r#"{"trajectory": [
                {"queries": 10, "threads": 1, "runs": [
                    {"views": 100, "mode": "serial", "workload": "uniform",
                     "bytes_per_view_arena": 140.0, "rss_bytes_per_view": 900.0},
                    {"views": 100, "mode": "parallel", "workload": "uniform",
                     "bytes_per_view_arena": 100.0}]},
                {"queries": 10, "threads": 1, "runs": [
                    {"views": 100, "mode": "serial", "workload": "uniform",
                     "bytes_per_view_arena": 132.0},
                    {"views": 100, "mode": "serial", "workload": "zipf-cold",
                     "bytes_per_view_arena": 50.0}]}
            ]}"#,
        )
        .expect("valid JSON");
        let entries = doc.get("trajectory").unwrap().as_arr().unwrap();
        // Best across entries, uniform-serial rows only — the 100.0 of an
        // old entry's `parallel` row and the zipf 50.0 must not become
        // the baseline.
        assert_eq!(
            best_prior(entries, 100, "bytes_per_view_arena"),
            Some(132.0)
        );
        assert_eq!(best_prior(entries, 100, "rss_bytes_per_view"), Some(900.0));
        // Unmeasured field / unseen scale: no baseline, gate passes.
        assert_eq!(best_prior(entries, 100, "p50_match_latency_us"), None);
        assert_eq!(best_prior(entries, 1000, "bytes_per_view_arena"), None);
    }

    /// What this bench writes it reads back whole; a file in any other
    /// shape is refused rather than absorbed, so `main` never overwrites
    /// it.
    #[test]
    fn only_the_frozen_schema_reloads() {
        let args = Args {
            sizes: vec![100],
            queries: 10,
            out: String::new(),
            strict: false,
            prove_smoke: 0,
        };
        let record = Record {
            views: 100,
            mode: "serial",
            threads: 1,
            queries: 10,
            workload: "uniform",
            p50_us: 5.5,
            p95_us: 9.0,
            p99_us: 12.25,
            throughput_qps: 150_000.0,
            candidate_fraction: 0.004,
            cache_hit_rate: None,
            rss_bytes_per_view: Some(2048.0),
            bytes_per_view_arena: Some(132.0),
        };
        let entry = entry_json(&[record], &args, Vec::new());
        let body = trajectory_json(vec![entry.clone()]).to_pretty();
        assert_eq!(prior_entries(&body), Ok(vec![entry]));

        for foreign in [
            "not json",
            // The pre-trajectory single-run format.
            r#"{"queries": 100, "threads": 2, "runs": []}"#,
            // An entry from before `unix_time` and `note`.
            r#"{"trajectory": [{"queries": 200, "threads": 4, "runs": []}]}"#,
            // A row from before the 19-field schema.
            r#"{"trajectory": [{"unix_time": 0, "queries": 200, "threads": 4, "note": null,
                "runs": [{"views": 100, "mode": "serial", "threads": 1, "queries": 200}]}]}"#,
        ] {
            assert!(prior_entries(foreign).is_err(), "accepted: {foreign}");
        }
    }

    #[test]
    fn prove_row_is_uniform_and_no_gate_reads_it() {
        let smoke = ProveSmoke {
            views: 1000,
            k: 2,
            proved: 9,
            refuted: 0,
            inconclusive: 1,
            wall_ms: 450,
        };
        let row = prove_run_json(&smoke);
        match &row {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, RUN_FIELDS, "the prove row is schema-uniform");
            }
            other => panic!("prove row is not an object: {other:?}"),
        }
        assert_eq!(row.get("mode").unwrap().as_str(), Some("prove"));
        assert_eq!(row.get("queries").unwrap().as_u64(), Some(10));
        assert_eq!(row.get("prove_wall_ms").unwrap().as_u64(), Some(450));
        assert_eq!(row.get("p50_match_latency_us"), Some(&Json::Null));
        // The memory gates read uniform-serial rows only.
        let entries = vec![Json::Obj(vec![("runs".into(), Json::Arr(vec![row]))])];
        assert_eq!(best_prior(&entries, 1000, "prove_wall_ms"), None);
    }

    #[test]
    fn maintain_row_is_uniform_and_no_gate_reads_it() {
        let run = MaintainRun {
            views: 1000,
            deltas: 32,
            serving_probes: 6400,
            us_per_delta: 12.5,
            fresh_serving_rate: 0.97,
            incremental: 700,
            recompute: 300,
            unchanged_share: 0.5,
        };
        let row = maintain_run_json(&run);
        match &row {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, RUN_FIELDS, "the maintain row is schema-uniform");
            }
            other => panic!("maintain row is not an object: {other:?}"),
        }
        assert_eq!(row.get("mode").unwrap().as_str(), Some("maintain"));
        assert_eq!(row.get("workload").unwrap().as_str(), Some("churn-writes"));
        assert_eq!(
            row.get("maintain_us_per_delta").unwrap().as_f64(),
            Some(12.5)
        );
        assert_eq!(row.get("fresh_serving_rate").unwrap().as_f64(), Some(0.97));
        assert_eq!(row.get("p50_match_latency_us"), Some(&Json::Null));
        // The memory gates read uniform-serial rows only.
        let entries = vec![Json::Obj(vec![("runs".into(), Json::Arr(vec![row]))])];
        assert_eq!(best_prior(&entries, 1000, "maintain_us_per_delta"), None);
    }
}
