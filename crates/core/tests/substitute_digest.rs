//! What the matcher emits, pinned as SQL. Every substitute the section 5
//! workload yields at 200 views is rendered with `sql_of_substitute` and
//! folded into one FNV-1a digest, so a change that moves a compensation,
//! an output mapping or the order of either moves the digest.
//!
//! Which column a compensation reads is decided by the roots of the
//! query's equivalence classes (DESIGN.md §13.6): the range compensation
//! routes through the class root first. Another root rule would build
//! different, equally correct substitutes; these tests make such a change
//! visible.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, TpchScale};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::display::sql_of_substitute;
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};
use mv_workload::{Generator, WorkloadParams};
use std::fmt::{self, Write};

/// The seeds of the `figures` harness's section 5 workload. The
/// generator places range predicates by the catalog's statistics, so the
/// catalog is the one its data generator fills.
const VIEW_SEED: u64 = 0x5EED_0001;
const QUERY_SEED: u64 = 0x5EED_0002;
const DATA_SEED: u64 = 0x5EED_0003;

/// The digest of every substitute below. Update it only together with a
/// change that moves a substitute, and say which moved and why.
const SUBSTITUTE_DIGEST: u64 = 0xd1da_41f9_4848_41d4;

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

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

#[test]
fn the_substitutes_of_the_section_5_workload_are_pinned() {
    let catalog = generate_tpch(&TpchScale::small(), DATA_SEED).0.catalog;
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(200);
    let queries = Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(200);
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_views(views).unwrap();

    let pin = engine.views();
    let mut digest = Fnv1a(Fnv1a::OFFSET);
    let (mut substitutes, mut compensated) = (0, 0);
    for (i, query) in queries.iter().enumerate() {
        for (id, sub) in engine.find_substitutes(query) {
            substitutes += 1;
            compensated += !sub.predicates.is_empty() as usize;
            writeln!(digest, "{i} {id} {}", sql_of_substitute(&sub, &pin)).unwrap();
        }
    }
    // The digest must cover compensations, or it pins nothing of the
    // column they read.
    assert!(
        substitutes > 0 && compensated > 0,
        "{substitutes} substitutes, {compensated} compensated"
    );
    assert_eq!(
        digest.0, SUBSTITUTE_DIGEST,
        "the substitutes moved ({substitutes} of them, {compensated} compensated): digest {:#018x}",
        digest.0
    );
}

/// A view over `lineitem ⋈ orders` outputs both join columns, and the
/// query bounds `o_orderkey`. Both outputs carry the bound's class; the
/// compensation reads the class root's, `l_orderkey`, output 0.
#[test]
fn a_compensation_reads_the_class_roots_output() {
    let (catalog, t) = tpch_catalog();
    let join = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
    let view = ViewDef::new(
        "lo",
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            join.clone(),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "out0"),
                NamedExpr::new(S::col(cr(1, 0)), "out1"),
            ],
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::and(vec![
            join,
            BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Gt, S::lit(5i64)),
        ]),
        vec![NamedExpr::new(S::col(cr(1, 0)), "k")],
    );
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_view(view).unwrap();
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    let sql = sql_of_substitute(&subs[0].1, &engine.views());
    assert!(sql.contains("out0 > 5"), "{sql}");
    assert!(!sql.contains("out1 > 5"), "{sql}");
}
