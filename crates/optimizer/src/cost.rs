//! The cost model.
//!
//! Costs are in abstract "row units". The model only needs to rank
//! alternatives sensibly: view scans beat re-joining base tables when the
//! view is smaller than the join's inputs, hash joins beat nested loops on
//! anything non-tiny, and pre-aggregation pays off when it collapses many
//! rows early. Cardinalities come from [`mv_plan::card`].

/// Cost per row produced by a scan.
pub const SCAN_ROW: f64 = 1.0;
/// Cost per input row of a filter.
pub const FILTER_ROW: f64 = 0.1;
/// Cost per build-side row of a hash join.
pub const HASH_BUILD_ROW: f64 = 1.5;
/// Cost per probe-side row of a hash join.
pub const HASH_PROBE_ROW: f64 = 1.0;
/// Cost per pair examined by a nested-loop join.
pub const NL_PAIR: f64 = 0.3;
/// Cost per input row of a hash aggregate.
pub const AGG_ROW: f64 = 1.2;
/// Cost per row of a projection.
pub const PROJECT_ROW: f64 = 0.05;

/// Scan cost for `rows` stored rows.
pub fn scan(rows: f64) -> f64 {
    SCAN_ROW * rows
}

/// Filter cost over `rows` input rows.
pub fn filter(rows: f64) -> f64 {
    FILTER_ROW * rows
}

/// Hash join cost.
pub fn hash_join(build: f64, probe: f64, out: f64) -> f64 {
    HASH_BUILD_ROW * build + HASH_PROBE_ROW * probe + PROJECT_ROW * out
}

/// Nested-loop join cost.
pub fn nested_loop(left: f64, right: f64) -> f64 {
    NL_PAIR * left * right
}

/// Hash aggregation cost.
pub fn aggregate(rows: f64, groups: f64) -> f64 {
    AGG_ROW * rows + groups
}

/// Projection cost.
pub fn project(rows: f64) -> f64 {
    PROJECT_ROW * rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_beats_nested_loop_at_scale() {
        let hj = hash_join(1000.0, 1000.0, 1000.0);
        let nl = nested_loop(1000.0, 1000.0);
        assert!(hj < nl);
        // On tiny inputs nested loop can win.
        let hj = hash_join(2.0, 2.0, 2.0);
        let nl = nested_loop(2.0, 2.0);
        assert!(nl < hj);
    }

    #[test]
    fn view_scan_cheaper_than_join() {
        // Scanning a 100-row view vs joining two 10k-row tables.
        let view = scan(100.0) + filter(100.0);
        let join = scan(10_000.0) * 2.0 + hash_join(10_000.0, 10_000.0, 40_000.0);
        assert!(view < join / 100.0);
    }
}
