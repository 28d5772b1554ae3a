//! `mv-lint` library surface.
//!
//! * [`oracle`]: the checker stack for one query — verify, match,
//!   execute, prove, optimize — as one call. The CLI loops it over the
//!   section 5 workload, and the integration suites of the workspace call
//!   it wherever they compare rows with `execute_spjg`.
//! * [`source`]: the source-discipline pass (MV2xx) behind the CLI's
//!   `--source` mode and the fixture tests.
//!
//! The CLI keeps its argument parsing, the maintain, audit and source
//! phases, and the JSON envelope.

pub mod oracle;
pub mod source;
