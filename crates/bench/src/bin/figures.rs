//! Regenerate every figure and in-text statistic of the paper's
//! experimental section (section 5).
//!
//! ```text
//! cargo run -p mv-bench --release --bin figures -- all
//! cargo run -p mv-bench --release --bin figures -- fig2 [--queries N] [--max-views N]
//! ```
//!
//! Subcommands: `fig2`, `fig3`, `fig4`, `stats`, `ablation`, `all`.
//! Results print as markdown tables (ready to paste into EXPERIMENTS.md).

use mv_bench::{build_workload, engine_with, figure2_configs, run_pass, Workload};
use mv_core::MatchConfig;
use mv_optimizer::OptimizerConfig;
use std::time::Duration;

struct Args {
    command: String,
    queries: usize,
    max_views: usize,
    step: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        queries: 200,
        max_views: 1000,
        step: 100,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let numeric = |i: usize, flag: &str| -> usize {
        argv.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a positive number");
                std::process::exit(2);
            })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--queries" => {
                args.queries = numeric(i, "--queries");
                i += 2;
            }
            "--max-views" => {
                args.max_views = numeric(i, "--max-views");
                i += 2;
            }
            "--step" => {
                args.step = numeric(i, "--step");
                i += 2;
            }
            cmd => {
                args.command = cmd.to_string();
                i += 1;
            }
        }
    }
    const COMMANDS: [&str; 6] = ["fig2", "fig3", "fig4", "stats", "ablation", "all"];
    if !COMMANDS.contains(&args.command.as_str()) {
        eprintln!(
            "unknown command {}; use {}",
            args.command,
            COMMANDS.join("|")
        );
        std::process::exit(2);
    }
    if args.step == 0 {
        eprintln!("--step must be at least 1");
        std::process::exit(2);
    }
    if args.queries == 0 {
        eprintln!("--queries must be at least 1");
        std::process::exit(2);
    }
    args
}

/// The view counts a sweep visits: 0, every multiple of `step` below
/// `max_views`, and `max_views` itself.
fn view_counts(max_views: usize, step: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = (0..max_views).step_by(step).collect();
    counts.push(max_views);
    counts
}

/// Figure 2: total optimization time vs number of views, four series.
fn fig2(w: &Workload, args: &Args) {
    println!(
        "\n## Figure 2: optimization time vs number of views ({} queries)\n",
        args.queries
    );
    println!("| views | Alt & Filter (s) | NoAlt & Filter (s) | Alt & NoFilter (s) | NoAlt & NoFilter (s) |");
    println!("|---|---|---|---|---|");
    for &n in &view_counts(args.max_views, args.step) {
        let mut row = format!("| {n} |");
        for (_, match_cfg, opt_cfg) in figure2_configs() {
            let engine = engine_with(w, n, match_cfg);
            let pass = run_pass(w, &engine, &opt_cfg);
            row.push_str(&format!(" {:.3} |", pass.total_time.as_secs_f64()));
        }
        println!("{row}");
    }
}

/// Passes Figure 3 times per view count: below about 200 views the
/// increase it divides by is a few milliseconds, inside one pass's drift.
const FIG3_RUNS: usize = 5;

/// Figure 3: optimization time and view-matching time (Alt & Filter), each
/// as an increase over the 0-view pass, which already invokes the rule.
/// Every n-view pass follows a 0-view pass of its own, and a row reports
/// the median over [`FIG3_RUNS`] such pairs of the n-view pass minus its
/// 0-view pass, so that drift between rounds cancels inside each pair.
/// Every pass runs on an engine of its own, so that none is served from
/// an earlier pass's caches; the rounds go round-robin over the counts.
fn fig3(w: &Workload, args: &Args) {
    println!("\n## Figure 3: optimization-time increase vs view-matching time\n");
    let counts: Vec<usize> = view_counts(args.max_views, args.step)
        .into_iter()
        .filter(|&n| n > 0)
        .collect();
    let pass_with = |n: usize| {
        run_pass(
            w,
            &engine_with(w, n, MatchConfig::default()),
            &OptimizerConfig::default(),
        )
    };
    // The 0-view passes, and per view count the paired differences.
    let (mut base_total, mut base_matching) = (Vec::new(), Vec::new());
    let mut increases = vec![(Vec::new(), Vec::new()); counts.len()];
    let secs = |d: Duration| d.as_secs_f64();
    for _ in 0..FIG3_RUNS {
        for (&n, (total, matching)) in counts.iter().zip(&mut increases) {
            let base = pass_with(0);
            let pass = pass_with(n);
            total.push(secs(pass.total_time) - secs(base.total_time));
            matching.push(secs(pass.matching_time) - secs(base.matching_time));
            base_total.push(secs(base.total_time));
            base_matching.push(secs(base.matching_time));
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_unstable_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    println!(
        "baseline (0 views): {:.3} s, of which view matching {:.3} s \
         (medians of {} passes)\n",
        median(&mut base_total),
        median(&mut base_matching),
        base_total.len(),
    );
    println!("| views | total increase (s) | matching increase (s) | matching share of increase |");
    println!("|---|---|---|---|");
    for (&n, (total, matching)) in counts.iter().zip(&mut increases) {
        let increase = median(total);
        let matching = median(matching);
        let share = if increase > 0.0 {
            matching / increase
        } else {
            f64::NAN
        };
        println!("| {n} | {increase:.3} | {matching:.3} | {share:.2} |");
    }
}

/// Figure 4: number of final plans using materialized views.
fn fig4(w: &Workload, args: &Args) {
    println!(
        "\n## Figure 4: final plans using materialized views ({} queries)\n",
        args.queries
    );
    println!("| views | plans using views | fraction |");
    println!("|---|---|---|");
    for &n in &view_counts(args.max_views, args.step) {
        let engine = engine_with(w, n, MatchConfig::default());
        let pass = run_pass(w, &engine, &OptimizerConfig::default());
        println!(
            "| {n} | {} | {:.2} |",
            pass.plans_using_views,
            pass.plans_using_views as f64 / args.queries as f64
        );
    }
}

/// The in-text statistics of section 5.
fn stats(w: &Workload, args: &Args) {
    println!("\n## Section 5 in-text statistics\n");
    println!("| views | invocations/query | candidate fraction | candidates passing | subs/invocation | subs/query |");
    println!("|---|---|---|---|---|---|");
    for &n in &view_counts(args.max_views, args.step) {
        if n == 0 {
            continue;
        }
        let engine = engine_with(w, n, MatchConfig::default());
        let pass = run_pass(w, &engine, &OptimizerConfig::default());
        let inv_per_query = pass.invocations as f64 / args.queries as f64;
        let cand_frac = if pass.views_available > 0 {
            pass.candidates as f64 / pass.views_available as f64
        } else {
            0.0
        };
        let passing = if pass.candidates > 0 {
            pass.substitutes as f64 / pass.candidates as f64
        } else {
            0.0
        };
        println!(
            "| {n} | {:.1} | {:.4} | {:.3} | {:.3} | {:.2} |",
            inv_per_query,
            cand_frac,
            passing,
            pass.substitutes as f64 / pass.invocations as f64,
            pass.substitutes as f64 / args.queries as f64,
        );
    }
}

/// Ablations over the design choices called out in DESIGN.md.
fn ablation(w: &Workload, args: &Args) {
    println!(
        "\n## Ablations (at {} views)\n",
        args.max_views.min(w.views.len())
    );
    let n = args.max_views.min(w.views.len());
    let variants: Vec<(&str, MatchConfig)> = vec![
        ("default", MatchConfig::default()),
        (
            "no filter tree",
            MatchConfig {
                use_filter_tree: false,
                ..MatchConfig::default()
            },
        ),
        (
            "unrefined hubs",
            MatchConfig {
                refined_hubs: false,
                ..MatchConfig::default()
            },
        ),
        (
            "null-rejecting FK extension",
            MatchConfig {
                null_rejecting_fk: true,
                ..MatchConfig::default()
            },
        ),
        (
            "lenient expression filter",
            MatchConfig {
                strict_expression_filter: false,
                ..MatchConfig::default()
            },
        ),
        (
            "base-table backjoins",
            MatchConfig {
                allow_backjoins: true,
                ..MatchConfig::default()
            },
        ),
    ];
    println!("| variant | total time (s) | matching time (s) | candidate fraction | substitutes |");
    println!("|---|---|---|---|---|");
    for (name, cfg) in variants {
        let engine = engine_with(w, n, cfg);
        let pass = run_pass(w, &engine, &OptimizerConfig::default());
        let cand_frac = if pass.views_available > 0 {
            pass.candidates as f64 / pass.views_available as f64
        } else {
            0.0
        };
        println!(
            "| {name} | {:.3} | {:.3} | {:.4} | {} |",
            pass.total_time.as_secs_f64(),
            pass.matching_time.as_secs_f64(),
            cand_frac,
            pass.substitutes
        );
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building workload: {} views, {} queries ...",
        args.max_views, args.queries
    );
    let w = build_workload(args.max_views, args.queries);
    match args.command.as_str() {
        "fig2" => fig2(&w, &args),
        "fig3" => fig3(&w, &args),
        "fig4" => fig4(&w, &args),
        "stats" => stats(&w, &args),
        "ablation" => ablation(&w, &args),
        "all" => {
            fig2(&w, &args);
            fig3(&w, &args);
            fig4(&w, &args);
            stats(&w, &args);
            ablation(&w, &args);
        }
        other => {
            eprintln!("unknown command {other}; use fig2|fig3|fig4|stats|ablation|all");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::view_counts;

    #[test]
    fn the_sweep_ends_at_max_views() {
        assert_eq!(view_counts(200, 100), [0, 100, 200]);
        assert_eq!(view_counts(250, 100), [0, 100, 200, 250]);
        assert_eq!(view_counts(5, 10), [0, 5]);
        assert_eq!(view_counts(0, 10), [0]);
        assert_eq!(view_counts(3, 1), [0, 1, 2, 3]);
    }
}
