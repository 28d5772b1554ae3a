//! One run: set-up, warm-up, traced phase, timed phase, probes,
//! verification — and the metrics they yield. README.md describes the
//! protocol.

use crate::layers::{self, CoreCounters, Optimized, Planner, Row};
use crate::metrics::{self, Metric};
use crate::pace::{self, Pace};
use crate::trace::{self, Recorder, Span, Totals};
use crate::workloads::{self, Backend, Ctx, Op, SetupTimes, Spec, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    pub trace: Option<bool>,
    pub smoke: bool,
}

pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `nproc`, clients, seed, op counts: what the numbers were taken on.
    pub info_json: String,
    /// Spans of the first traced pass, one list per client.
    pub trace_json: Option<String>,
}

/// What one client (or several, merged) saw over its passes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub refresh_ns: u64,
    pub view_answered: u64,
    pub views_refreshed: u64,
    pub views_maintained: u64,
    pub views_marked_dirty: u64,
    pub delta_rows: u64,
    // Collected on traced passes only.
    pub groups: u64,
    pub alternatives: u64,
    pub substitute_alternatives: u64,
    pub rows_out: u64,
    pub rows_scanned: u64,
    pub view_scans: u64,
    pub scans: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.refresh_ns += other.refresh_ns;
        self.view_answered += other.view_answered;
        self.views_refreshed += other.views_refreshed;
        self.views_maintained += other.views_maintained;
        self.views_marked_dirty += other.views_marked_dirty;
        self.delta_rows += other.delta_rows;
        self.groups += other.groups;
        self.alternatives += other.alternatives;
        self.substitute_alternatives += other.substitute_alternatives;
        self.rows_out += other.rows_out;
        self.rows_scanned += other.rows_scanned;
        self.view_scans += other.view_scans;
        self.scans += other.scans;
    }

    pub fn reads(&self) -> u64 {
        self.read_ns.len() as u64
    }

    pub fn writes(&self) -> u64 {
        self.write_ns.len() as u64
    }

    /// Time inside ops, at the reference pace.
    pub fn op_ns(&self) -> u64 {
        self.read_ns.iter().sum::<u64>() + self.write_ns.iter().sum::<u64>() + self.refresh_ns
    }
}

/// A client's access to the data: clients of a read-only workload share
/// it, the single client of `mixed_rw_1k` owns it.
enum Handle<'a> {
    Shared(&'a Backend),
    Exclusive(&'a mut Backend),
}

impl Handle<'_> {
    fn get(&self) -> &Backend {
        match self {
            Handle::Shared(b) => b,
            Handle::Exclusive(b) => b,
        }
    }

    fn get_mut(&mut self) -> &mut Backend {
        match self {
            Handle::Exclusive(b) => b,
            Handle::Shared(_) => panic!("a shared backend takes no writes"),
        }
    }
}

struct Served {
    rows: Vec<Row>,
    optimized: Optimized,
}

/// SQL text in, result rows out: the path every read takes, with one span
/// around each call into a layer.
fn serve(backend: &Backend, planner: &Planner, sql: &str, rec: &mut Recorder) -> Served {
    let query = rec.enter("query");
    let served = {
        let s = rec.enter("sql.lex");
        let tokens = layers::lex(sql);
        rec.exit(s);
        let s = rec.enter("sql.parse");
        let ast = layers::parse(&tokens);
        rec.exit(s);
        let s = rec.enter("sql.bind");
        let block = layers::bind(ast, &backend.db().catalog);
        rec.exit(s);
        let s = rec.enter("optimizer.optimize");
        let optimized = layers::optimize(planner, &block);
        rec.exit(s);
        let s = rec.enter("bench.glue");
        let views = backend.views_for(&optimized.plan);
        rec.exit(s);
        let s = rec.enter("exec.execute");
        let rows = layers::execute(backend.db(), &views, &optimized.plan);
        rec.exit(s);
        let s = rec.enter("bench.glue");
        drop(views);
        rec.exit(s);
        Served { rows, optimized }
    };
    rec.exit(query);
    served
}

fn read_op(
    ctx: &Ctx,
    backend: &Backend,
    planner: &Planner,
    query: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> u64 {
    let started = Instant::now();
    let served = serve(backend, planner, &ctx.queries[query].sql, rec);
    let raw_ns = started.elapsed().as_nanos() as u64;
    let plan = &served.optimized.plan;
    tally.view_answered += layers::uses_view(plan) as u64;
    if rec.is_on() {
        let stats = &served.optimized.stats;
        tally.groups += stats.groups as u64;
        tally.alternatives += stats.alternatives as u64;
        tally.substitute_alternatives += stats.substitute_alternatives as u64;
        tally.rows_out += served.rows.len() as u64;
        let (rows, view_scans, scans) = backend.scan_counts(plan);
        tally.rows_scanned += rows;
        tally.view_scans += view_scans;
        tally.scans += scans;
    }
    raw_ns
}

fn write_op(ctx: &Ctx, backend: &mut Backend, rec: &mut Recorder, tally: &mut Tally) -> u64 {
    let delta = backend.next_delta(ctx.seed);
    tally.delta_rows += (delta.inserts.len() + delta.deletes.len()) as u64;
    let started = Instant::now();
    let s = rec.enter("maintain.apply");
    let (maintained, marked_dirty) =
        layers::apply_delta(backend.maintainer_mut(), &delta, &ctx.engine);
    rec.exit(s);
    let raw_ns = started.elapsed().as_nanos() as u64;
    tally.views_maintained += maintained as u64;
    tally.views_marked_dirty += marked_dirty as u64;
    raw_ns
}

fn refresh_op(ctx: &Ctx, backend: &mut Backend, rec: &mut Recorder, tally: &mut Tally) -> u64 {
    let maintainer = backend.maintainer_mut();
    let started = Instant::now();
    let s = rec.enter("maintain.refresh");
    for &view in &ctx.view_ids {
        if layers::is_dirty(maintainer, view) {
            layers::refresh_view(maintainer, view, &ctx.engine);
            tally.views_refreshed += 1;
        }
    }
    rec.exit(s);
    started.elapsed().as_nanos() as u64
}

fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-text payload".to_string())
}

/// Runs one op and returns how long it took by the raw clock; a panic
/// anywhere under it is a failed op, not a crash, and has no time.
fn run_op(
    ctx: &Ctx,
    handle: &mut Handle,
    planner: &Planner,
    op: Op,
    op_id: u32,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Option<u64> {
    tally.attempted += 1;
    rec.begin_op(op_id);
    let outcome = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Read(q) => read_op(ctx, handle.get(), planner, q as usize, rec, tally),
        Op::Write => write_op(ctx, handle.get_mut(), rec, tally),
        Op::Refresh => refresh_op(ctx, handle.get_mut(), rec, tally),
    }));
    outcome
        .map_err(|panic| {
            let what = match op {
                Op::Read(q) => ctx.queries[q as usize].sql.clone(),
                Op::Write => format!("write {}", handle.get().writes_done()),
                Op::Refresh => "refresh".to_string(),
            };
            tally
                .failures
                .push(format!("{what}: {}", panic_text(panic)));
        })
        .ok()
}

#[derive(Clone, Copy)]
enum Passes {
    Count(usize),
    /// Whole passes until this much time has gone by.
    AtLeast(Duration),
}

fn client_loop(
    ctx: &Ctx,
    mut handle: Handle,
    client: usize,
    passes: Passes,
    traced: bool,
    epoch: Instant,
) -> (Tally, Vec<Span>) {
    let planner = layers::new_planner(&ctx.engine);
    let ops = &ctx.ops[client];
    let mut rec = if traced {
        // Traced passes run one at a time; a read opens nine spans, a
        // write or refresh one.
        Recorder::on(ops.len() * 9, epoch)
    } else {
        Recorder::off()
    };
    let mut tally = Tally::default();
    let mut pace = Pace::new();
    let started = Instant::now();
    let mut done = 0;
    loop {
        for (i, &op) in ops.iter().enumerate() {
            let op_id = (done * ops.len() + i) as u32;
            let before = pace.reading();
            let raw_ns = run_op(ctx, &mut handle, &planner, op, op_id, &mut rec, &mut tally);
            let scale = pace::scale(before, pace.reading());
            rec.end_op(scale);
            let Some(raw_ns) = raw_ns else { continue };
            let ns = (raw_ns as f64 * scale) as u64;
            match op {
                Op::Read(_) => tally.read_ns.push(ns),
                Op::Write => tally.write_ns.push(ns),
                Op::Refresh => tally.refresh_ns += ns,
            }
        }
        done += 1;
        let enough = match passes {
            Passes::Count(n) => done >= n,
            Passes::AtLeast(d) => started.elapsed() >= d,
        };
        if enough {
            break;
        }
    }
    (tally, rec.into_spans())
}

/// Runs every client of the workload, each on its own thread when there
/// is more than one, and returns what each saw.
fn run_clients(world: &mut World, passes: Passes, traced: bool) -> Vec<(Tally, Vec<Span>)> {
    let epoch = Instant::now();
    let clients = world.ctx.spec.clients;
    if clients == 1 {
        let handle = Handle::Exclusive(&mut world.backend);
        return vec![client_loop(&world.ctx, handle, 0, passes, traced, epoch)];
    }
    let (ctx, backend) = (&world.ctx, &world.backend);
    let start = Barrier::new(clients);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    client_loop(ctx, Handle::Shared(backend), client, passes, traced, epoch)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread ends without panicking"))
            .collect()
    })
}

fn merged(outs: Vec<(Tally, Vec<Span>)>) -> Tally {
    let mut all = Tally::default();
    for (tally, _) in outs {
        all.merge(tally);
    }
    all
}

/// The traced phase: per-layer times and counts.
#[derive(Default)]
pub struct Traced {
    pub untraced: Tally,
    pub traced: Tally,
    pub totals: Totals,
    pub core: CoreCounters,
    pub first_pass: Option<String>,
}

fn traced_phase(world: &mut World) -> Traced {
    let mut acc = Traced::default();
    for _ in 0..world.ctx.spec.traced_pairs {
        acc.untraced
            .merge(merged(run_clients(world, Passes::Count(1), false)));
        let before = layers::core_counters(&world.ctx.engine);
        let outs = run_clients(world, Passes::Count(1), true);
        acc.core
            .add(&layers::core_counters(&world.ctx.engine).since(&before));
        let mut spans = Vec::new();
        for (tally, client_spans) in outs {
            acc.traced.merge(tally);
            acc.totals.add(&client_spans);
            spans.push(client_spans);
        }
        acc.first_pass.get_or_insert_with(|| trace::to_json(&spans));
    }
    acc
}

/// Mean time of each step of `find_substitutes`, each distinct query's
/// top-level block probed once. Outside every pass: these explain
/// `core.match_us_per_query`, they are not part of it.
#[derive(Default)]
pub struct Probes {
    pub count: u64,
    pub summary_ns: u64,
    pub fingerprint_ns: u64,
    pub candidates_ns: u64,
    pub find_cold_ns: u64,
    pub find_warm_ns: u64,
}

fn probes(world: &World) -> Probes {
    let engine = &world.ctx.engine;
    let mut p = Probes::default();
    let mut candidates = Vec::new();
    let timed = |ns: &mut u64, started: Instant| *ns += started.elapsed().as_nanos() as u64;
    for q in &world.ctx.queries {
        let block = layers::bind(
            layers::parse(&layers::lex(&q.sql)),
            &world.backend.db().catalog,
        );
        let t = Instant::now();
        let summary = std::hint::black_box(layers::probe_summary(engine, &block));
        timed(&mut p.summary_ns, t);
        let t = Instant::now();
        std::hint::black_box(layers::probe_fingerprint(&block));
        timed(&mut p.fingerprint_ns, t);
        let t = Instant::now();
        layers::probe_candidates(engine, &block, &summary, &mut candidates);
        timed(&mut p.candidates_ns, t);
        layers::clear_substitute_cache(engine);
        let t = Instant::now();
        std::hint::black_box(layers::probe_find_substitutes(engine, &block));
        timed(&mut p.find_cold_ns, t);
        let t = Instant::now();
        std::hint::black_box(layers::probe_find_substitutes(engine, &block));
        timed(&mut p.find_warm_ns, t);
        p.count += 1;
    }
    p
}

/// Serves query `q` and compares its rows with the interpreter's over the
/// same base data; a difference or a panic is a failed op.
fn check_query(world: &World, planner: &Planner, q: usize, tally: &mut Tally) {
    tally.attempted += 1;
    let query = &world.ctx.queries[q];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let served = serve(&world.backend, planner, &query.sql, &mut Recorder::off());
        let reference = layers::reference_rows(world.backend.db(), &query.expr);
        layers::rows_differ(&served.rows, &reference)
    }));
    match outcome {
        Ok(None) => {}
        Ok(Some(diff)) => tally
            .failures
            .push(format!("{}: wrong rows: {diff}", query.sql)),
        Err(panic) => tally
            .failures
            .push(format!("{}: {}", query.sql, panic_text(panic))),
    }
}

/// The verification pass, outside all timing. On the maintained workload
/// one more pass of ops runs first, with one seeded read re-checked right
/// after every write — while views are being maintained and marked dirty.
fn verify(world: &mut World) -> Tally {
    let mut tally = Tally::default();
    let planner = layers::new_planner(&world.ctx.engine);
    if world.ctx.spec.maintained() {
        let ops = world.ctx.ops[0].clone();
        for (i, op) in ops.into_iter().enumerate() {
            let mut handle = Handle::Exclusive(&mut world.backend);
            let mut rec = Recorder::off();
            let _ = run_op(
                &world.ctx,
                &mut handle,
                &planner,
                op,
                i as u32,
                &mut rec,
                &mut tally,
            );
            if op == Op::Write {
                let q = workloads::recheck_query(&world.ctx, world.backend.writes_done());
                check_query(world, &planner, q, &mut tally);
            }
        }
    }
    for q in workloads::verified_queries(&world.ctx) {
        check_query(world, &planner, q, &mut tally);
    }
    tally
}

fn median_setup(mut setups: Vec<SetupTimes>) -> SetupTimes {
    setups.sort_by(|a, b| a.total_s().total_cmp(&b.total_s()));
    setups[setups.len() / 2]
}

fn info_json(world: &World, args: &Args, timed: &[Tally], traced: &Traced) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let spec = &world.ctx.spec;
    let timed_reads: u64 = timed.iter().map(Tally::reads).sum();
    let timed_writes: u64 = timed.iter().map(Tally::writes).sum();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"smoke\":{},\"nproc\":{},\
         \"clients\":{},\"views\":{},\"distinct_queries\":{},\"ops_per_pass\":{},\
         \"timed_reads\":{},\"timed_writes\":{},\"traced_reads\":{},\"traced_writes\":{},\
         \"rustc\":\"{}\"}}",
        spec.name,
        args.seed,
        args.seconds,
        args.smoke,
        nproc,
        spec.clients,
        spec.views,
        spec.queries,
        world.ctx.ops.iter().map(Vec::len).sum::<usize>(),
        timed_reads,
        timed_writes,
        traced.traced.reads(),
        traced.traced.writes(),
        rustc,
    )
}

pub fn run(spec: Spec, args: &Args) -> Report {
    let spec = if args.smoke { spec.smoke() } else { spec };
    let mut setups = Vec::new();
    let mut world = workloads::setup(spec, args.seed);
    setups.push(world.setup);
    for _ in 1..spec.setups {
        // Free the previous world first: peak memory is one world's.
        drop(world);
        world = workloads::setup(spec, args.seed);
        setups.push(world.setup);
    }
    let setup = median_setup(setups);

    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut account = |tally: &mut Tally| {
        attempted += tally.attempted;
        failures.append(&mut tally.failures);
    };

    let mut warm_up = merged(run_clients(&mut world, Passes::Count(1), false));
    account(&mut warm_up);

    // Traced before timed, so the traced passes always start from the
    // same state and their counts repeat exactly.
    let (do_traced, do_timed) = (args.trace != Some(false), args.trace != Some(true));
    let mut traced = Traced::default();
    if do_traced {
        traced = traced_phase(&mut world);
        account(&mut traced.untraced);
        account(&mut traced.traced);
    }

    let mut timed: Vec<Tally> = Vec::new();
    if do_timed {
        let passes = if args.smoke {
            Passes::Count(1)
        } else {
            Passes::AtLeast(Duration::from_secs_f64(args.seconds))
        };
        timed = run_clients(&mut world, passes, false)
            .into_iter()
            .map(|(tally, _)| tally)
            .collect();
        timed.iter_mut().for_each(&mut account);
    }

    let probed = if do_traced {
        probes(&world)
    } else {
        Probes::default()
    };
    // Read before verification: the interpreter's memory is not the
    // product's.
    let peak_rss_mb = metrics::peak_rss_mb();
    account(&mut verify(&mut world));

    let mut report = Report {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted,
        failures,
        info_json: info_json(&world, args, &timed, &traced),
        trace_json: traced.first_pass.take(),
    };
    if do_timed {
        report.end_to_end = metrics::end_to_end(&setup, &timed, peak_rss_mb);
    }
    if do_traced {
        report.per_layer = metrics::per_layer(&world, &setup, &traced, &probed);
        let unattributed = report
            .per_layer
            .iter()
            .find(|m| m.name == "trace.unattributed_share")
            .map_or(0.0, |m| m.value);
        if unattributed > 0.05 && !args.smoke {
            report.failures.push(format!(
                "trace.unattributed_share is {unattributed}: the layer rows no longer add up to the end-to-end row"
            ));
        }
    }
    report
}
