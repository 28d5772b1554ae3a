//! The reference probe: how fast this machine is running right now.
//!
//! The container this benchmark was written on changes speed while a run
//! is under way. Arithmetic slows by up to a factor of two in plateaus
//! that last seconds (a fixed loop took 9 to 23 ms); at other times
//! arithmetic holds steady and memory-bound work drifts by a third over
//! minutes. Raw timings of one seed then spread by 10 to 24 % from run to
//! run. So every op is timed against a small fixed probe, read just before
//! and just after it, and reported in microseconds *at the reference
//! pace*.
//!
//! The probe has an arithmetic half (a dependent xorshift chain, registers
//! only) and a memory half (a pointer chase through 8 MB, four L2 caches'
//! worth, that never revisits a line before the whole buffer went by, so
//! it times the shared cache, the TLB and DRAM whatever the op left in L2). The
//! slowness factor is the geometric mean of the two halves against their
//! reference times. On eight runs of one seed that took the spread of
//! `query_p50_us` from 10 % to 4 % on `serve_warm_1k` and from 9 % to 5 %
//! on `mixed_rw_1k`, and left `exec_heavy_1k` and `match_cold_50k` where
//! they were (11 % and 4 %); either half alone made one of the four worse
//! than raw. What no probe sees — a lock, a page fault — stays in the
//! numbers, as it should.

use crate::workloads::Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const SPIN_ITERATIONS: u32 = 10_000;
const CHASE_STEPS: u32 = 500;
const CHASE_ENTRIES: usize = 1 << 21;
/// The halves' usual times on that container, so that scaled microseconds
/// read close to real ones there. Constants: runs on any machine, and on
/// any commit, scale to the same pace.
const SPIN_REFERENCE_NS: f64 = 27_000.0;
const CHASE_REFERENCE_NS: f64 = 100_000.0;
/// A reading older than this is taken again.
const STALE: Duration = Duration::from_millis(2);

fn spin_ns() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..SPIN_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64
}

/// One cycle through every entry of the chase buffer, in random order;
/// built once and shared, every [`Pace`] walks it from a start of its own.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut chain: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut rng = Rng::new(CHASE_ENTRIES as u64);
        for i in (1..CHASE_ENTRIES).rev() {
            chain.swap(i, rng.below(i));
        }
        chain
    })
}

pub struct Pace {
    chain: &'static [u32],
    at: u32,
    slowness: f64,
    taken: Instant,
}

impl Pace {
    pub fn new() -> Self {
        static STARTS: AtomicU32 = AtomicU32::new(0);
        let start = STARTS.fetch_add(1, Ordering::Relaxed) as usize * 7919 % CHASE_ENTRIES;
        let mut pace = Pace {
            chain: chain(),
            at: start as u32,
            slowness: 1.0,
            taken: Instant::now(),
        };
        pace.measure();
        pace
    }

    fn chase_ns(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        self.at = std::hint::black_box(at);
        started.elapsed().as_nanos() as f64
    }

    fn measure(&mut self) {
        // The faster of two spins: an interrupt only ever slows one.
        let spin = spin_ns().min(spin_ns()) / SPIN_REFERENCE_NS;
        let chase = self.chase_ns() / CHASE_REFERENCE_NS;
        self.slowness = (spin * chase).sqrt();
        self.taken = Instant::now();
    }

    /// How many times slower than the reference pace the machine runs
    /// now; measured again once the last reading is stale.
    pub fn reading(&mut self) -> f64 {
        if self.taken.elapsed() >= STALE {
            self.measure();
        }
        self.slowness
    }
}

/// The factor that turns a duration measured between two readings into
/// its length at the reference pace.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 / (before + after)
}
