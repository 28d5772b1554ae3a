//! The plans the optimizer chooses, pinned. Every query of a §5 workload
//! on the TPC-H catalog is planned with views producing substitutes
//! (Alt), with matching that produces none (NoAlt) and with views off,
//! and the `{:?}` of every `Optimized` (plan, cost, rows and search
//! counters) is folded into one FNV-1a digest. A change that moves any
//! plan, cost, row estimate or counter moves the digest, and has to show
//! the new value in its diff.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{MatchConfig, MatchingEngine};
use mv_optimizer::{Optimizer, OptimizerConfig};
use mv_workload::{Generator, WorkloadParams};
use std::fmt::{self, Write};

const VIEW_SEED: u64 = 0x5EC5_0001;
const QUERY_SEED: u64 = 0x5EC5_0002;

/// The digest of every plan below. Update it only together with the
/// change that moves a plan, and say which plans moved and why.
const PLAN_DIGEST: u64 = 0x16f4_57ab_af00_3f33;

/// FNV-1a, 64-bit, written out so the digest does not depend on std's
/// hasher staying what it is.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        Ok(())
    }
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    let digest = |s: &str| {
        let mut h = Fnv1a(Fnv1a::OFFSET);
        h.write_str(s).unwrap();
        h.0
    };
    assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn the_plans_of_the_section_5_workload_are_pinned() {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(200);
    let queries = Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(60);
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_views(views).unwrap();

    let alt = OptimizerConfig::default();
    let no_alt = OptimizerConfig {
        produce_substitutes: false,
        ..alt.clone()
    };
    let views_off = OptimizerConfig {
        use_views: false,
        ..alt.clone()
    };
    let mut digest = Fnv1a(Fnv1a::OFFSET);
    let mut used_views = 0;
    for config in [alt, no_alt, views_off] {
        let optimizer = Optimizer::new(&engine, config);
        for query in &queries {
            let optimized = optimizer.optimize(query);
            used_views += optimized.plan.uses_view() as usize;
            writeln!(digest, "{optimized:?}").unwrap();
        }
    }
    // Only the Alt series can use a view, and it must, or the digest pins
    // nothing of the view-matching rule.
    assert!(used_views > 0, "no plan uses a view");
    assert_eq!(
        digest.0, PLAN_DIGEST,
        "the plans moved: digest {:#018x}",
        digest.0
    );
}
