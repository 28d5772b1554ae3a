//! Deeply nested SQL is a typed error, not a stack overflow: an overflow
//! aborts the process, which no caller (`catch_unwind` included) can
//! recover from.

use mv_catalog::tpch::tpch_catalog;
use mv_sql::parse_query;

/// A query over `nation` whose WHERE clause nests `depth` levels of one
/// form.
fn nested(form: &str, depth: usize) -> String {
    let predicate = match form {
        "boolean parentheses" => {
            format!("{}n_nationkey = 1{}", "(".repeat(depth), ")".repeat(depth))
        }
        "scalar parentheses" => {
            format!("{}n_nationkey{} = 1", "(".repeat(depth), ")".repeat(depth))
        }
        "NOT" => format!("{}n_nationkey = 1", "NOT ".repeat(depth)),
        "unary minus" => format!("n_nationkey = {}1", "- ".repeat(depth)),
        "a sum" => format!("n_nationkey = 1{}", " + 1".repeat(depth)),
        _ => unreachable!("{form}"),
    };
    format!("SELECT n_name FROM nation WHERE {predicate}")
}

#[test]
fn deep_nesting_is_an_error() {
    let (catalog, _) = tpch_catalog();
    for form in [
        "boolean parentheses",
        "scalar parentheses",
        "NOT",
        "unary minus",
        "a sum",
    ] {
        if let Err(e) = parse_query(&nested(form, 64), &catalog) {
            panic!("{form} at depth 64: {e}");
        }
        assert!(
            parse_query(&nested(form, 10_000), &catalog).is_err(),
            "{form} at depth 10,000"
        );
    }
}
