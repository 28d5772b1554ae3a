//! Two properties of the SQL front end over the workload generator's
//! blocks (ROADMAP item 6(a)):
//!
//! - round trip: binding the parse of `sql_of(b)` gives back a block
//!   `identical` to `b`, for queries and for views (as `CREATE VIEW`);
//! - mutation: a rendered statement with one to three characters deleted,
//!   inserted or replaced comes back as a block or a typed error, never a
//!   panic, and an error's offset lies within the input.

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::Catalog;
use mv_plan::display::sql_of;
use mv_sql::{parse_query, parse_view};
use mv_workload::{Generator, WorkloadParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn rendered_blocks_bind_back_identical() {
    let (catalog, _) = tpch_catalog();
    for seed in 0..20 {
        let queries = Generator::new(&catalog, WorkloadParams::queries(), seed).queries(200);
        for q in &queries {
            let sql = sql_of(q, &catalog);
            let back = parse_query(&sql, &catalog).unwrap_or_else(|e| panic!("{e}: {sql}"));
            assert!(back.identical(q), "seed {seed}: {sql}");
        }
        let views = Generator::new(&catalog, WorkloadParams::views(), seed).views(200);
        for v in &views {
            let sql = format!(
                "CREATE VIEW {} WITH SCHEMABINDING AS {}",
                v.name,
                sql_of(&v.expr, &catalog)
            );
            let back = parse_view(&sql, &catalog).unwrap_or_else(|e| panic!("{e}: {sql}"));
            assert_eq!(back.name, v.name, "{sql}");
            assert!(back.expr.identical(&v.expr), "seed {seed}: {sql}");
        }
    }
}

/// What a mutation inserts or puts in place of a character: quotes,
/// comments, punctuation, a multi-byte character, numbers (one too large
/// for an `i64`) and keywords.
const PIECES: &[&str] = &[
    "'",
    "''",
    "(",
    ")",
    "--",
    "é",
    ";",
    ",",
    ".",
    "*",
    "-",
    "=",
    "<",
    "!",
    " ",
    "\n",
    "0",
    "1",
    "7",
    "9",
    "1.5",
    "12345678901234567890",
    "x",
    "AND ",
    "NOT ",
    "DATE ",
    "GROUP BY ",
];

/// `sql` with one character deleted, one piece inserted, or one character
/// replaced by a piece, at a random char boundary.
fn mutate(sql: &str, rng: &mut StdRng) -> String {
    let bounds: Vec<usize> = sql
        .char_indices()
        .map(|(i, _)| i)
        .chain([sql.len()])
        .collect();
    let at = bounds[rng.random_range(0..bounds.len())];
    let piece = PIECES[rng.random_range(0..PIECES.len())];
    let next = sql[at..].chars().next().map_or(0, char::len_utf8);
    match rng.random_range(0..3) {
        0 => format!("{}{}", &sql[..at], &sql[at + next..]),
        1 => format!("{}{piece}{}", &sql[..at], &sql[at..]),
        _ => format!("{}{piece}{}", &sql[..at], &sql[at + next..]),
    }
}

/// Parse `sql`, failing the test on a panic or an offset past its end.
/// Whether it bound.
fn parses_or_errs(sql: &str, catalog: &Catalog) -> bool {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_query(sql, catalog)))
        .unwrap_or_else(|_| panic!("the front end panicked on {sql:?}"));
    match parsed {
        Ok(_) => true,
        Err(e) => {
            assert!(e.offset <= sql.len(), "{e} past the end of {sql:?}");
            false
        }
    }
}

#[test]
fn mutated_statements_bind_or_err() {
    let (catalog, _) = tpch_catalog();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut bound, mut errors) = (0, 0);
    for seed in 0..20 {
        let queries = Generator::new(&catalog, WorkloadParams::queries(), seed).queries(40);
        for q in &queries {
            let sql = sql_of(q, &catalog);
            for _ in 0..50 {
                let mut mutant = sql.clone();
                for _ in 0..rng.random_range(1..4) {
                    mutant = mutate(&mutant, &mut rng);
                }
                if parses_or_errs(&mutant, &catalog) {
                    bound += 1;
                } else {
                    errors += 1;
                }
            }
        }
    }
    assert_eq!(bound + errors, 40_000);
    eprintln!("{bound} mutants bound, {errors} were errors");
    // Most mutants are malformed; some still bind.
    assert!(
        errors > bound && bound > 0,
        "{bound} bound, {errors} errors"
    );
}
