//! The diagnostics framework: rule identifiers, severities, span-like
//! context naming the view/query/conjunct a finding refers to, and a
//! machine-readable JSON rendering for `mv-lint`.

use std::fmt;

/// Analyzer rules. Each rule independently re-derives one of the paper's
/// soundness conditions (section references are to Goldstein & Larson,
/// SIGMOD 2001); the analyzer shares no logic with the matcher, so a rule
/// firing on matcher output means one of the two is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// MV001 — a column reference is outside the catalog's bounds for its
    /// table, or a substitute references a column position past the end of
    /// the view-output + backjoin column space.
    ColumnBounds,
    /// MV002 — an equivalence class pins a column to two different
    /// constants, or equates columns of incomparable types (§3.1.1).
    EcContradiction,
    /// MV003 — the range conjunction on some equivalence class is
    /// unsatisfiable (`Interval::is_empty` after intersection).
    EmptyRange,
    /// MV004 — the substitute's table mapping is broken: the query's table
    /// multiset is not covered by the view's (§3.1).
    TableCorrespondence,
    /// MV005 — equijoin subsumption (§3.1.2): the view enforces a column
    /// equality the query does not imply, so the view is missing rows.
    EquijoinSubsumption,
    /// MV006 — equijoin compensation (§3.1.3): a query column equality is
    /// enforced neither by the view nor by a compensating predicate, or a
    /// compensating equality is stronger than anything the query implies.
    EquijoinCompensation,
    /// MV007 — range subsumption (§3.1.2): the view's range on some
    /// equivalence class does not contain the query's effective range.
    RangeSubsumption,
    /// MV008 — range compensation (§3.1.3): view range ∩ compensating
    /// range differs from the query's range on some class — a dropped,
    /// contradictory, or over-strong compensating conjunct.
    RangeCompensation,
    /// MV009 — residual subsumption (§3.1.2): a view residual predicate
    /// matches no query residual, so the view may be missing rows.
    ResidualSubsumption,
    /// MV010 — residual compensation (§3.1.3): a query residual is neither
    /// enforced by the view nor reapplied as a compensating predicate, or
    /// a compensating residual matches nothing the query asked for.
    ResidualCompensation,
    /// MV011 — output mapping (§3.1.4): a substitute output expression is
    /// not equivalent to the query output it stands in for, or an output
    /// cannot be computed from the view's outputs.
    OutputMapping,
    /// MV012 — a substitute column position does not expand to a view
    /// output / backjoin column where one is required (e.g. a compensating
    /// predicate over an aggregate output).
    SubstituteColumn,
    /// MV013 — foreign-key join elimination (§3.2): an unmapped view table
    /// is not eliminable by a cardinality-preserving FK join re-derived
    /// from catalog keys and null-rejection.
    FkElimination,
    /// MV014 — a backjoin (§7 index extension) does not re-join on a
    /// non-null unique key equated to existing substitute columns.
    BackjoinKey,
    /// MV015 — aggregate rollup (§3.3): an invalid regrouping — COUNT not
    /// rolled up as SUM, a SUM drawn from a non-matching view aggregate,
    /// grouping compensation that is not a coarsening, or an SPJ query
    /// answered from an aggregate view.
    AggRollup,
    /// MV016 — an aggregate view exposes no COUNT(*) output, so COUNT and
    /// AVG rollups over it are impossible (§3.3).
    AggViewNoCount,
    /// MV017 — a plan-construction invariant reported by the optimizer's
    /// typed error path instead of a panic.
    PlanInvariant,
    /// MV018 — executed cross-check: a substitute's rows, or the rows of
    /// the optimizer's plan for the query, differ from the query's rows on
    /// generated data (`mv_lint::oracle`, `mv-lint --exec-check`).
    ExecMismatch,

    // ------------------------------------------------------------------
    // MV101+ — the `mv-audit` completeness & catalog band (DESIGN.md §10).
    // MV10x audits the filter-tree index, MV11x the view catalog's
    // redundancy structure, MV12x the schema metadata the matcher trusts.
    // ------------------------------------------------------------------
    /// MV101 — a live view is missing from its filter tree, or is stored
    /// under keys that differ from a fresh derivation of its definition
    /// (stale entry), or the tree holds an unknown/removed view id.
    IndexEntry,
    /// MV102 — filter completeness: the exhaustive matcher accepts a view
    /// for a workload query but the filter-tree search prunes it, and the
    /// rejecting levels are not the documented §4.2.7 strict-expression
    /// conservatism. The detail names the first failing level.
    FilterCompleteness,
    /// MV103 — hub invariant (§4.2.1/§4.2.2): a stored hub key is not a
    /// subset of the view's stored source-table key, so the subset search
    /// at level 1 can prune the view for queries it should reach.
    HubInvariant,
    /// MV104 — a stored index token is out of bounds: a table or column
    /// token decodes to nothing in the catalog. (A template-text token is
    /// a hash, so any value is well formed; MV101 catches a wrong one.)
    IndexTokenBounds,
    /// MV110 — two registered views are equivalent (each matches the
    /// other's definition); one of them is redundant storage and doubles
    /// candidate work.
    EquivalentViews,
    /// MV111 — a view is strictly subsumed: it can be computed from
    /// another view but not vice versa, so it adds no rewriting power
    /// beyond (possibly) performance.
    SubsumedView,
    /// MV112 — a view matched no query of the audited workload; dead
    /// weight in every candidate set the filter cannot rule out.
    DeadView,
    /// MV120 — a foreign-key declaration uses nullable referencing
    /// columns: §3.2's cardinality-preserving join elimination needs a
    /// null-rejecting predicate before it may rely on this FK.
    FkNullableColumn,
    /// MV121 — a foreign key references columns that cover no unique key
    /// of the referenced table: the join is not cardinality-preserving
    /// and FK-based table elimination over it is unsound.
    FkNotUniqueKey,
    /// MV122 — the paired columns of a foreign key disagree in type.
    FkTypeMismatch,
    /// MV123 — a foreign-key declaration is structurally broken: arity
    /// mismatch between the column lists, or a column id out of bounds
    /// for its table.
    FkColumnBounds,
    /// MV124 — the same foreign key is declared more than once.
    DuplicateFk,
    /// MV125 — a declared key includes a nullable column: two NULL rows
    /// are not equal, so the "unique key" does not guarantee uniqueness
    /// the way §3.2's elimination assumes. Error for primary keys,
    /// warning for secondary unique keys.
    KeyNullableColumn,
    /// MV126 — a declared key is structurally broken: empty column list,
    /// duplicate columns, or a column id out of bounds.
    KeyColumnBounds,

    // ------------------------------------------------------------------
    // MV2xx — the `mv-lint --source` concurrency-discipline band
    // (DESIGN.md §14): token-level rules over the workspace's own source
    // files, keeping the online catalog's synchronization auditable by
    // the mv-model schedule explorer.
    // ------------------------------------------------------------------
    /// MV201 — a raw `std::sync::Mutex`/`RwLock` or `std::sync::atomic`
    /// type is used outside the `mv_core::sync` facade (and its
    /// allowlisted homes): such a primitive is invisible to the
    /// `--cfg mv_model` schedule explorer, so the interleavings it
    /// creates are never model-checked.
    RawSyncPrimitive,
    /// MV202 — `Ordering::Relaxed` outside the statistics counters:
    /// relaxed operations order nothing, which is only sound for counters
    /// no other memory access depends on.
    RelaxedOrdering,
    /// MV203 — the engine's published snapshot field is touched outside
    /// the snapshot-guard discipline: loads anywhere but the `snapshot`
    /// accessor, or publishes anywhere but `publish` or in a function that
    /// never took the writer guard.
    RawEngineState,
    /// MV204 — a bare `Instant::now` outside the bench crate and the
    /// `timing.then(Instant::now)` gate: unconditional clock reads on the
    /// match path defeat the zero-clock-read configuration and inject
    /// nondeterminism under the model checker.
    UnguardedClock,
    /// MV205 — `.unwrap()` on a lock acquisition result in non-test
    /// code: a panicking thread poisons the lock and every later
    /// `.unwrap()` turns one panic into a cascade; use
    /// `mv_core::sync::lock_or_recover` (or the read/write variants).
    UnwrapOnLock,
    /// MV206 — `.expect(..)` on a lock acquisition result in non-test
    /// code: same cascade hazard as MV205, just with a message attached;
    /// use `mv_core::sync::lock_or_recover` (or the read/write
    /// variants).
    ExpectOnLock,
    /// MV207 — `#[doc(hidden)]` on library code outside a `#[cfg(test)]`
    /// region: the attribute hides an item from the docs, not from
    /// callers, so a test-only backdoor marked with it ships in every
    /// release build. Test helpers belong in the test modules that use
    /// them.
    TestBackdoor,
    /// MV301 — the prover's symbolic pass separates query and substitute:
    /// their abstract states (equivalence-class partition, per-column
    /// interval, or residual-predicate set) differ, so the rewrite cannot
    /// be equivalent. The diagnostic names the offending column or
    /// predicate.
    SymbolicMismatch,
    /// MV302 — the prover's enumerative pass found a constraint-
    /// satisfying database, within bound k, on which query and substitute
    /// return different row bags. The diagnostic renders the full witness
    /// database and a replayable seed.
    Counterexample,
    /// MV303 — the prove budget ran out (or a value domain was truncated)
    /// before the bound-k space was exhausted: no counterexample in the
    /// explored prefix, but equivalence is not certified even up to k.
    ProveBudgetExhausted,
    /// MV304 — the pair is outside the prover's supported fragment
    /// (foreign-key cycle among the referenced tables, or a row domain
    /// past the enumerator's hard cap): nothing was checked.
    ProveUnsupported,
    /// MV401 — a maintained view's stored contents differ from
    /// recompute-from-scratch as row bags: some delta was propagated
    /// wrongly (or applied twice, or skipped). The diagnostic shows the
    /// bag difference.
    MaintainedDrift,
    /// MV402 — a substitute stamped `Fresh` was served from a view whose
    /// data epochs trail the current table epochs: the freshness gate or
    /// the stamp bookkeeping is broken, and the rewrite may read data the
    /// base tables no longer contain.
    StaleServing,
    /// MV403 — an aggregate view retains a group whose maintained count
    /// reached zero (or stores a non-positive count): counting maintenance
    /// must delete emptied groups, or re-aggregation resurrects phantom
    /// groups.
    ZombieGroup,
    /// MV404 — a view's data-epoch stamp is *ahead* of the current table
    /// epoch for some base table: stamps may only trail table epochs, so a
    /// lead means forged or reordered maintenance bookkeeping.
    StampRegression,
}

impl RuleId {
    /// Stable machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::ColumnBounds => "MV001",
            RuleId::EcContradiction => "MV002",
            RuleId::EmptyRange => "MV003",
            RuleId::TableCorrespondence => "MV004",
            RuleId::EquijoinSubsumption => "MV005",
            RuleId::EquijoinCompensation => "MV006",
            RuleId::RangeSubsumption => "MV007",
            RuleId::RangeCompensation => "MV008",
            RuleId::ResidualSubsumption => "MV009",
            RuleId::ResidualCompensation => "MV010",
            RuleId::OutputMapping => "MV011",
            RuleId::SubstituteColumn => "MV012",
            RuleId::FkElimination => "MV013",
            RuleId::BackjoinKey => "MV014",
            RuleId::AggRollup => "MV015",
            RuleId::AggViewNoCount => "MV016",
            RuleId::PlanInvariant => "MV017",
            RuleId::ExecMismatch => "MV018",
            RuleId::IndexEntry => "MV101",
            RuleId::FilterCompleteness => "MV102",
            RuleId::HubInvariant => "MV103",
            RuleId::IndexTokenBounds => "MV104",
            RuleId::EquivalentViews => "MV110",
            RuleId::SubsumedView => "MV111",
            RuleId::DeadView => "MV112",
            RuleId::FkNullableColumn => "MV120",
            RuleId::FkNotUniqueKey => "MV121",
            RuleId::FkTypeMismatch => "MV122",
            RuleId::FkColumnBounds => "MV123",
            RuleId::DuplicateFk => "MV124",
            RuleId::KeyNullableColumn => "MV125",
            RuleId::KeyColumnBounds => "MV126",
            RuleId::RawSyncPrimitive => "MV201",
            RuleId::RelaxedOrdering => "MV202",
            RuleId::RawEngineState => "MV203",
            RuleId::UnguardedClock => "MV204",
            RuleId::UnwrapOnLock => "MV205",
            RuleId::ExpectOnLock => "MV206",
            RuleId::TestBackdoor => "MV207",
            RuleId::SymbolicMismatch => "MV301",
            RuleId::Counterexample => "MV302",
            RuleId::ProveBudgetExhausted => "MV303",
            RuleId::ProveUnsupported => "MV304",
            RuleId::MaintainedDrift => "MV401",
            RuleId::StaleServing => "MV402",
            RuleId::ZombieGroup => "MV403",
            RuleId::StampRegression => "MV404",
        }
    }

    /// Short rule name, as listed in DESIGN.md §9.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::ColumnBounds => "column-bounds",
            RuleId::EcContradiction => "ec-contradiction",
            RuleId::EmptyRange => "empty-range",
            RuleId::TableCorrespondence => "table-correspondence",
            RuleId::EquijoinSubsumption => "equijoin-subsumption",
            RuleId::EquijoinCompensation => "equijoin-compensation",
            RuleId::RangeSubsumption => "range-subsumption",
            RuleId::RangeCompensation => "range-compensation",
            RuleId::ResidualSubsumption => "residual-subsumption",
            RuleId::ResidualCompensation => "residual-compensation",
            RuleId::OutputMapping => "output-mapping",
            RuleId::SubstituteColumn => "substitute-column",
            RuleId::FkElimination => "fk-elimination",
            RuleId::BackjoinKey => "backjoin-key",
            RuleId::AggRollup => "agg-rollup",
            RuleId::AggViewNoCount => "agg-view-no-count",
            RuleId::PlanInvariant => "plan-invariant",
            RuleId::ExecMismatch => "exec-mismatch",
            RuleId::IndexEntry => "index-entry",
            RuleId::FilterCompleteness => "filter-completeness",
            RuleId::HubInvariant => "hub-invariant",
            RuleId::IndexTokenBounds => "index-token-bounds",
            RuleId::EquivalentViews => "equivalent-views",
            RuleId::SubsumedView => "subsumed-view",
            RuleId::DeadView => "dead-view",
            RuleId::FkNullableColumn => "fk-nullable-column",
            RuleId::FkNotUniqueKey => "fk-not-unique-key",
            RuleId::FkTypeMismatch => "fk-type-mismatch",
            RuleId::FkColumnBounds => "fk-column-bounds",
            RuleId::DuplicateFk => "duplicate-fk",
            RuleId::KeyNullableColumn => "key-nullable-column",
            RuleId::KeyColumnBounds => "key-column-bounds",
            RuleId::RawSyncPrimitive => "raw-sync-primitive",
            RuleId::RelaxedOrdering => "relaxed-ordering",
            RuleId::RawEngineState => "raw-engine-state",
            RuleId::UnguardedClock => "unguarded-clock",
            RuleId::UnwrapOnLock => "unwrap-on-lock",
            RuleId::ExpectOnLock => "expect-on-lock",
            RuleId::TestBackdoor => "test-backdoor",
            RuleId::SymbolicMismatch => "symbolic-mismatch",
            RuleId::Counterexample => "counterexample",
            RuleId::ProveBudgetExhausted => "prove-budget-exhausted",
            RuleId::ProveUnsupported => "prove-unsupported",
            RuleId::MaintainedDrift => "maintained-drift",
            RuleId::StaleServing => "stale-serving",
            RuleId::ZombieGroup => "zombie-group",
            RuleId::StampRegression => "stamp-regression",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.code(), self.name())
    }
}

/// Severity policy: `Error` means the substitute (or expression) can
/// produce wrong results; `Warning` means degenerate-but-legal (an empty
/// range, a rollup-limiting view shape); `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Span-like context: which artifact a diagnostic refers to. All fields
/// optional; renderers skip empty ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Context {
    /// View name (or id) involved, if any.
    pub view: Option<String>,
    /// Query label, if any.
    pub query: Option<String>,
    /// The conjunct, output item, or column the rule fired on.
    pub detail: Option<String>,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: RuleId,
    pub severity: Severity,
    pub message: String,
    pub context: Context,
}

impl Diagnostic {
    pub fn new(rule: RuleId, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity,
            message: message.into(),
            context: Context::default(),
        }
    }

    pub fn error(rule: RuleId, message: impl Into<String>) -> Self {
        Self::new(rule, Severity::Error, message)
    }

    pub fn warning(rule: RuleId, message: impl Into<String>) -> Self {
        Self::new(rule, Severity::Warning, message)
    }

    pub fn with_view(mut self, view: impl Into<String>) -> Self {
        self.context.view = Some(view.into());
        self
    }

    pub fn with_query(mut self, query: impl Into<String>) -> Self {
        self.context.query = Some(query.into());
        self
    }

    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.context.detail = Some(detail.into());
        self
    }

    /// Render as a JSON object (no serde in the workspace; diagnostics are
    /// flat enough to emit by hand, like the bench records).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"rule\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", \"message\": {}",
            self.rule.code(),
            self.rule.name(),
            self.severity,
            json_string(&self.message)
        );
        if let Some(v) = &self.context.view {
            out.push_str(&format!(", \"view\": {}", json_string(v)));
        }
        if let Some(q) = &self.context.query {
            out.push_str(&format!(", \"query\": {}", json_string(q)));
        }
        if let Some(d) = &self.context.detail {
            out.push_str(&format!(", \"detail\": {}", json_string(d)));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.severity, self.rule, self.message)?;
        if let Some(v) = &self.context.view {
            write!(f, " [view {v}]")?;
        }
        if let Some(q) = &self.context.query {
            write!(f, " [query {q}]")?;
        }
        if let Some(d) = &self.context.detail {
            write!(f, " [{d}]")?;
        }
        Ok(())
    }
}

/// A collection of diagnostics with severity tallies, renderable as a JSON
/// report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Render the whole report as a JSON document.
    pub fn to_json(&self, title: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"report\": {},\n", json_string(title)));
        out.push_str(&format!(
            "  \"errors\": {},\n  \"warnings\": {},\n  \"infos\": {},\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        ));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&d.to_json());
            if i + 1 < self.diagnostics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic::error(RuleId::RangeSubsumption, "bad \"range\"")
            .with_view("v1")
            .with_detail("line\nbreak");
        let j = d.to_json();
        assert!(j.contains("\\\"range\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("MV007"));
    }

    #[test]
    fn report_tallies() {
        let mut r = Report::new();
        r.push(Diagnostic::error(RuleId::ColumnBounds, "x"));
        r.push(Diagnostic::warning(RuleId::EmptyRange, "y"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        let json = r.to_json("test");
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"warnings\": 1"));
    }
}
