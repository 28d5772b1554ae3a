//! What a run's tallies, spans and counters come to: the end-to-end and
//! per-layer metrics, by the names `BENCHMARK.json` declares.

use crate::layers;
use crate::run::{Probes, Tally, Traced};
use crate::workloads::{SetupTimes, World};
use std::time::Duration;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    us(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn end_to_end(setup: &SetupTimes, clients: &[Tally], peak_rss_mb: f64) -> Vec<Metric> {
    let mut read_ns: Vec<u64> = clients
        .iter()
        .flat_map(|t| t.read_ns.iter().copied())
        .collect();
    read_ns.sort_unstable();
    let reads = read_ns.len() as u64;
    let view_answered: u64 = clients.iter().map(|t| t.view_answered).sum();
    // Each client's own rate over the time it spent in ops, summed: a
    // closed loop has no think time, and clients end their last pass at
    // different moments.
    let queries_per_s: f64 = clients
        .iter()
        .map(|t| ratio(t.reads() as f64, t.op_ns() as f64 / 1e9))
        .sum();
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        m("setup_s", setup.total_s(), "s", 1),
        m("query_p50_us", percentile(&read_ns, 0.50), "us", reads),
        m("query_p99_us", percentile(&read_ns, 0.99), "us", reads),
        m("queries_per_s", queries_per_s, "1/s", reads),
        m(
            "view_answered_share",
            ratio(view_answered as f64, reads as f64),
            "share",
            reads,
        ),
        m("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

pub fn per_layer(world: &World, setup: &SetupTimes, t: &Traced, p: &Probes) -> Vec<Metric> {
    let reads = t.traced.reads();
    let writes = t.traced.writes();
    let (reads_f, writes_f) = (reads as f64, writes as f64);
    let span = |name: &str| t.totals.of(name);
    let per_read = |ns: f64| ratio(ns / 1e3, reads_f);
    let share = |ns: f64| ratio(ns, t.totals.root_ns);

    // The matcher runs inside `optimize`, and its own clock (MatchStats,
    // raw) says what part of that span is the core's; the rest is the
    // optimizer's.
    let optimize = span("optimizer.optimize");
    let of_optimize = |d: Duration| {
        optimize.total_ns * ratio(d.as_nanos() as f64, optimize.raw_total_ns as f64).min(1.0)
    };
    let match_ns = of_optimize(t.core.match_time);
    let filter_ns = of_optimize(t.core.filter_time).min(match_ns);
    let optimizer_ns = optimize.total_ns - match_ns;
    let sql_ns = span("sql.lex").self_ns + span("sql.parse").self_ns + span("sql.bind").self_ns;
    let exec_ns = span("exec.execute").self_ns;
    let glue_ns = span("bench.glue").self_ns;
    let apply_ns = span("maintain.apply").self_ns;
    let refresh_ns = span("maintain.refresh").self_ns;
    let unattributed_ns = span("query").self_ns;

    let probe = |ns: u64| ratio(us(ns), p.count as f64);
    let sorted_writes = {
        let mut w = t.traced.write_ns.clone();
        w.extend(&t.untraced.write_ns);
        w.sort_unstable();
        w
    };
    let n_views = world.ctx.view_ids.len() as f64;
    let c = &t.core;
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        m("share.sql", share(sql_ns), "share", reads),
        m("share.optimizer", share(optimizer_ns), "share", reads),
        m("share.core", share(match_ns), "share", reads),
        m("share.exec", share(exec_ns), "share", reads),
        m(
            "share.maintain",
            share(apply_ns + refresh_ns),
            "share",
            writes,
        ),
        m("share.bench", share(glue_ns), "share", reads),
        m(
            "sql.lex_us_per_query",
            per_read(span("sql.lex").self_ns),
            "us",
            reads,
        ),
        m(
            "sql.parse_us_per_query",
            per_read(span("sql.parse").self_ns),
            "us",
            reads,
        ),
        m(
            "sql.bind_us_per_query",
            per_read(span("sql.bind").self_ns),
            "us",
            reads,
        ),
        m(
            "optimizer.self_us_per_query",
            per_read(optimizer_ns),
            "us",
            reads,
        ),
        m(
            "optimizer.groups_per_query",
            ratio(t.traced.groups as f64, reads_f),
            "count",
            reads,
        ),
        m(
            "optimizer.alternatives_per_query",
            ratio(t.traced.alternatives as f64, reads_f),
            "count",
            reads,
        ),
        m(
            "optimizer.substitute_alternatives_per_query",
            ratio(t.traced.substitute_alternatives as f64, reads_f),
            "count",
            reads,
        ),
        m("core.filter_us_per_query", per_read(filter_ns), "us", reads),
        m(
            "core.match_us_per_query",
            per_read(match_ns - filter_ns),
            "us",
            reads,
        ),
        m(
            "core.invocations_per_query",
            ratio(c.invocations as f64, reads_f),
            "count",
            reads,
        ),
        m(
            "core.candidates_per_invocation",
            ratio(c.candidates as f64, c.invocations as f64),
            "count",
            c.invocations,
        ),
        m(
            "core.candidate_share",
            ratio(c.candidates as f64, c.views_available as f64),
            "share",
            c.invocations,
        ),
        m(
            "core.pass_share",
            ratio(c.substitutes as f64, c.candidates as f64),
            "share",
            c.candidates,
        ),
        m(
            "core.substitutes_per_invocation",
            ratio(c.substitutes as f64, c.invocations as f64),
            "count",
            c.invocations,
        ),
        m(
            "core.cache_hit_share",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "share",
            c.cache_hits + c.cache_misses,
        ),
        m(
            "core.cache_invalidations_per_write",
            ratio(c.cache_invalidations as f64, writes_f),
            "count",
            writes,
        ),
        m(
            "core.summary_us_per_probe",
            probe(p.summary_ns),
            "us",
            p.count,
        ),
        m(
            "core.fingerprint_us_per_probe",
            probe(p.fingerprint_ns),
            "us",
            p.count,
        ),
        m(
            "core.candidates_us_per_probe",
            probe(p.candidates_ns),
            "us",
            p.count,
        ),
        m(
            "core.find_cold_us_per_probe",
            probe(p.find_cold_ns),
            "us",
            p.count,
        ),
        m(
            "core.find_warm_us_per_probe",
            probe(p.find_warm_ns),
            "us",
            p.count,
        ),
        m(
            "core.arena_bytes_per_view",
            ratio(layers::arena_bytes(&world.ctx.engine) as f64, n_views),
            "B",
            n_views as u64,
        ),
        m("exec.us_per_query", per_read(exec_ns), "us", reads),
        m(
            "exec.rows_out_per_query",
            ratio(t.traced.rows_out as f64, reads_f),
            "count",
            reads,
        ),
        m(
            "exec.rows_scanned_per_query",
            ratio(t.traced.rows_scanned as f64, reads_f),
            "count",
            reads,
        ),
        m(
            "exec.view_scan_share",
            ratio(t.traced.view_scans as f64, t.traced.scans as f64),
            "share",
            t.traced.scans,
        ),
        m(
            "maintain.apply_us_per_delta",
            ratio(apply_ns / 1e3, writes_f),
            "us",
            writes,
        ),
        m(
            "maintain.views_maintained_per_delta",
            ratio(t.traced.views_maintained as f64, writes_f),
            "count",
            writes,
        ),
        m(
            "maintain.views_marked_dirty_per_delta",
            ratio(t.traced.views_marked_dirty as f64, writes_f),
            "count",
            writes,
        ),
        m(
            "maintain.incremental_share",
            if world.ctx.spec.maintained() {
                ratio(world.ctx.incremental_views as f64, n_views)
            } else {
                0.0
            },
            "share",
            n_views as u64,
        ),
        m(
            "maintain.refresh_us_per_view",
            ratio(refresh_ns / 1e3, t.traced.views_refreshed as f64),
            "us",
            t.traced.views_refreshed,
        ),
        m(
            "maintain.refreshes_per_write",
            ratio(t.traced.views_refreshed as f64, writes_f),
            "count",
            writes,
        ),
        m(
            "data.rows_per_delta",
            ratio(t.traced.delta_rows as f64, writes_f),
            "count",
            writes,
        ),
        m(
            "write_p50_us",
            percentile(&sorted_writes, 0.50),
            "us",
            sorted_writes.len() as u64,
        ),
        m(
            "write_p95_us",
            percentile(&sorted_writes, 0.95),
            "us",
            sorted_writes.len() as u64,
        ),
        m("setup.data_gen_s", setup.data_gen_s, "s", 1),
        m("setup.workload_gen_s", setup.workload_gen_s, "s", 1),
        m("setup.sql_render_s", setup.sql_render_s, "s", 1),
        m("setup.register_views_s", setup.register_views_s, "s", 1),
        m("setup.plan_pass_s", setup.plan_pass_s, "s", 1),
        m("setup.materialize_s", setup.materialize_s, "s", 1),
        m("bench.glue_us_per_query", per_read(glue_ns), "us", reads),
        m(
            "trace.overhead_share",
            ratio(t.traced.op_ns() as f64, t.untraced.op_ns() as f64) - 1.0,
            "share",
            reads + writes,
        ),
        m(
            "trace.unattributed_share",
            share(unattributed_ns),
            "share",
            reads,
        ),
    ]
}
