//! # mv-model — deterministic schedule exploration for the catalog
//!
//! A vendored, registry-free model checker in the spirit of `loom`,
//! sized to what the matview engine's concurrency layer needs. Code
//! under test swaps its sync primitives for this crate's shims (via the
//! `mv_core::sync` facade under `--cfg mv_model`); [`explore`] then
//! reruns a closed program over every schedule a bounded-exhaustive DFS
//! can reach:
//!
//! * every shim operation is a scheduling point; switching away from a
//!   runnable thread consumes one unit of the preemption budget
//!   (forced switches at blocking points are free),
//! * relaxed/acquire loads branch over every coherence-admissible store
//!   under a vector-clock release/acquire memory model, so stale reads
//!   that a real weakly-ordered machine could produce are explored
//!   deterministically,
//! * equivalent prefixes are pruned by hashing execution state, and
//! * a failing run prints a dot-joined decision seed that [`replay`]
//!   re-executes exactly.
//!
//! Outside an [`explore`] call the shims behave as plain std types, so
//! reference results can be computed in the same binary.

mod ctx;
mod exec;

pub mod atomic;
pub mod sync;
pub mod thread;

pub use atomic::{AtomicU64, AtomicUsize, Ordering};
pub use sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Mutex as StdMutex;

use ctx::{panic_message, set_ctx};
use exec::{AbortSignal, Decision, Execution, RunOutcome};

/// Exploration limits. The defaults suit programs with a handful of
/// threads and a few hundred shim operations.
#[derive(Clone, Debug)]
pub struct Config {
    /// How many times the DFS may switch away from a runnable thread.
    /// Forced switches (blocking, thread exit) are free. Empirically,
    /// almost all concurrency bugs need very few preemptions (2 is the
    /// classic CHESS bound).
    pub preemption_bound: u32,
    /// Per-run cap on shim operations; exceeding it fails the run
    /// (livelock guard).
    pub max_steps: u64,
    /// Total run budget (explored + pruned). Exploration that exhausts
    /// the budget reports `budget_exhausted: true` instead of failing.
    pub max_schedules: u64,
    /// Prune continuations whose (state fingerprint, next choice) pair
    /// has already been fully explored from an earlier prefix.
    pub prune: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 2,
            max_steps: 20_000,
            max_schedules: 100_000,
            prune: true,
        }
    }
}

/// A schedule that violated an invariant: the panic message plus the
/// decision seed that reproduces it under [`replay`].
#[derive(Clone, Debug)]
pub struct Failure {
    pub seed: String,
    pub message: String,
}

/// Outcome of an [`explore`] call.
#[derive(Clone, Debug)]
pub struct Report {
    /// Completed (non-pruned) schedules.
    pub schedules: u64,
    /// Runs cut short because their continuation was already explored.
    pub pruned: u64,
    /// Deepest decision vector seen.
    pub max_depth: usize,
    /// True if `max_schedules` stopped exploration before the DFS
    /// frontier was fully explored.
    pub budget_exhausted: bool,
    pub failure: Option<Failure>,
}

impl Report {
    /// Assert the program passed, with a diagnostic that includes the
    /// failing seed if it did not.
    pub fn assert_pass(&self, what: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "model program '{what}' failed after {} schedules ({} pruned)\n  seed: {}\n  {}",
                self.schedules, self.pruned, f.seed, f.message
            );
        }
    }

    /// Assert the program failed, returning the failure. Prints the
    /// replayable seed so a human can pin the schedule down.
    pub fn assert_fail(&self, what: &str) -> &Failure {
        match &self.failure {
            Some(f) => {
                println!(
                    "model program '{what}' pinned to a failing schedule \
                     after {} schedules ({} pruned)\n  replay seed: {}\n  {}",
                    self.schedules, self.pruned, f.seed, f.message
                );
                f
            }
            None => panic!(
                "model program '{what}' unexpectedly passed \
                 ({} schedules, {} pruned, budget exhausted: {})",
                self.schedules, self.pruned, self.budget_exhausted
            ),
        }
    }
}

static GEN: StdAtomicU64 = StdAtomicU64::new(1);

fn run_once<F: Fn()>(
    cfg: &Config,
    prefix: Vec<u32>,
    seen: Option<std::sync::Arc<StdMutex<HashSet<u64>>>>,
    f: &F,
) -> RunOutcome {
    let gen = GEN.fetch_add(1, StdOrdering::SeqCst);
    let exec = std::sync::Arc::new(Execution::new(
        gen,
        cfg.preemption_bound,
        cfg.max_steps,
        prefix,
        seen,
    ));
    set_ctx(Some((std::sync::Arc::clone(&exec), 0)));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    set_ctx(None);
    let failure = match &result {
        Ok(_) => None,
        Err(p) if p.is::<AbortSignal>() => None,
        Err(p) => Some(panic_message(p)),
    };
    exec.main_finish(failure);
    exec.collect()
}

fn encode_seed(decisions: &[Decision]) -> String {
    decisions
        .iter()
        .map(|d| d.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

fn decode_seed(seed: &str) -> Vec<u32> {
    if seed.is_empty() {
        return Vec::new();
    }
    seed.split('.')
        .map(|s| s.parse::<u32>().expect("malformed replay seed"))
        .collect()
}

/// Run `f` under every schedule reachable within `cfg`'s bounds. `f` is
/// invoked once per schedule and must be deterministic apart from the
/// scheduling and memory-model choices the shims inject: build all
/// state inside the closure.
pub fn explore<F: Fn()>(cfg: &Config, f: F) -> Report {
    let seen = cfg
        .prune
        .then(|| std::sync::Arc::new(StdMutex::new(HashSet::new())));
    let mut prefix: Vec<u32> = Vec::new();
    let mut schedules = 0u64;
    let mut pruned = 0u64;
    let mut max_depth = 0usize;
    loop {
        let out = run_once(cfg, prefix.clone(), seen.clone(), &f);
        max_depth = max_depth.max(out.decisions.len());
        if out.pruned {
            pruned += 1;
        } else {
            schedules += 1;
        }
        if let Some(message) = out.failure {
            return Report {
                schedules,
                pruned,
                max_depth,
                budget_exhausted: false,
                failure: Some(Failure {
                    seed: encode_seed(&out.decisions),
                    message,
                }),
            };
        }
        if schedules + pruned >= cfg.max_schedules {
            return Report {
                schedules,
                pruned,
                max_depth,
                budget_exhausted: true,
                failure: None,
            };
        }
        // Backtrack: flip the deepest decision with an untried sibling.
        let mut d = out.decisions;
        loop {
            match d.last().copied() {
                None => {
                    return Report {
                        schedules,
                        pruned,
                        max_depth,
                        budget_exhausted: false,
                        failure: None,
                    }
                }
                Some(last) if last.chosen + 1 < last.alts => {
                    d.pop();
                    prefix = d.iter().map(|x| x.chosen).collect();
                    prefix.push(last.chosen + 1);
                    break;
                }
                Some(_) => {
                    d.pop();
                }
            }
        }
    }
}

/// Re-run exactly one schedule from a seed printed by a failing
/// [`explore`], returning the failure message it reproduces (if any).
pub fn replay<F: Fn()>(cfg: &Config, seed: &str, f: F) -> Option<String> {
    let out = run_once(cfg, decode_seed(seed), None, &f);
    out.failure
}
