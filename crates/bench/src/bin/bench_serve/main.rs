//! `bench_serve`: SQL text in, result rows out, timed end to end and
//! attributed layer by layer. README.md in this directory is the manual.

mod layers;
mod metrics;
mod pace;
mod run;
#[cfg(test)]
mod smoke;
mod trace;
mod workloads;

use metrics::Metric;
use run::{Args, Report};
use std::process::ExitCode;
use workloads::{Spec, SPECS};

const USAGE: &str = "usage: bench_serve (--workload <name> | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]
  --workload  match_cold_50k | serve_warm_1k | exec_heavy_1k | mixed_rw_1k
  --all       run every workload, each in a process of its own
  --seed      every input is made from it (default 1)
  --seconds   length of the timed phase (default 8)
  --trace     0: end-to-end metrics only; 1: per-layer metrics only; absent: both
  --smoke     tiny sizes, one pass per phase";

struct Cli {
    workload: Option<String>,
    all: bool,
    args: Args,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        args: Args {
            seed: 1,
            seconds: 8.0,
            trace: None,
            smoke: false,
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--all" => cli.all = true,
            "--smoke" => cli.args.smoke = true,
            "--seed" => {
                cli.args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                cli.args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(cli)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let fields: Vec<String> = metrics
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Where build outputs go: the trace file goes beside them.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("bench_serve")
        .join(format!("trace-{workload}.json"))
}

fn print_report(spec: &Spec, report: &Report) -> ExitCode {
    if let Some(json) = &report.trace_json {
        let path = trace_path(spec.name);
        let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, json));
        if let Err(e) = written {
            eprintln!("bench_serve: could not write {}: {e}", path.display());
        }
    }
    for failure in &report.failures {
        eprintln!("bench_serve: failed op: {failure}");
    }
    print_metrics(&report.end_to_end);
    print_metrics(&report.per_layer);
    let failed = report.failures.len() as u64;
    println!(
        "failed_share {} share n={}",
        failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    println!("run {}", report.info_json);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        report.attempted.max(1),
        failed,
        metrics_json(report.end_to_end.iter().chain(&report.per_layer))
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, so `setup_s` and `peak_rss_mb` stay
/// per workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let passed: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
    let mut code = ExitCode::SUCCESS;
    for spec in &SPECS {
        println!("== {}", spec.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(&passed)
            .status()
            .expect("child bench_serve starts");
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench_serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.all {
        return run_all(&argv);
    }
    let name = cli.workload.expect("checked by parse_cli");
    let Some(spec) = Spec::by_name(&name) else {
        eprintln!("bench_serve: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    print_report(&spec, &run::run(spec, &cli.args))
}
