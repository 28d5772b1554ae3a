//! The MV2xx source-discipline pass: a dependency-free, token-level lint
//! over the workspace's own `.rs` files that keeps the online catalog's
//! concurrency protocol auditable by the `mv-model` schedule explorer.
//!
//! The rules (DESIGN.md §14):
//!
//! * **MV201** `raw-sync-primitive` — `std::sync::Mutex`, `std::sync::RwLock`
//!   or `std::sync::atomic` types outside the `mv_core::sync` facade.
//!   A raw primitive is invisible under `--cfg mv_model`, so the schedule
//!   explorer can never exercise the interleavings it creates.
//! * **MV202** `relaxed-ordering` — `Ordering::Relaxed` outside the
//!   statistics counters (`crates/core/src/stats.rs`).
//! * **MV203** `raw-engine-state` — the engine's published snapshot field
//!   (`self.shared`) loaded outside the `snapshot` accessor, or published
//!   anywhere but `publish`, or from a function that never took
//!   `writer_guard()`.
//! * **MV204** `unguarded-clock` — a bare `Instant::now` outside the bench
//!   crate; the engine reads the clock only through the
//!   `timing.then(Instant::now)` gate.
//! * **MV205** `unwrap-on-lock` — `.lock().unwrap()` (or `.read()` /
//!   `.write()`) in non-test code; poisoning then cascades. Use
//!   `mv_core::sync::lock_or_recover` and friends.
//! * **MV206** `expect-on-lock` — `.lock().expect(…)` (or `.read()` /
//!   `.write()`) in non-test code; the message dresses up the same
//!   poisoning cascade MV205 flags. Use the recover helpers instead.
//! * **MV207** `test-backdoor` — `#[doc(hidden)]` in non-test code. The
//!   attribute hides an item from the docs, not from callers: a hook a
//!   test suite needs ships in every release build. Keep such helpers in
//!   the `#[cfg(test)]` modules that use them.
//!
//! Suppressions: a comment `mv-lint: allow(MVnnn)` disables rule `nnn`
//! on its own line and the next line; placed in a file's comment header
//! (before any code), it disables the rule for the whole file. Regions
//! under `#[cfg(test)] mod … { … }` are skipped entirely; a
//! `#[cfg(test)] mod name;` declaration marks only itself.
//!
//! The pass owns a tiny lexer that blanks comments and string/char
//! literal contents (so a pattern inside a doc comment or a string never
//! fires) while collecting the comment text for suppression parsing.

use mv_verify::{Diagnostic, RuleId};
use std::path::{Path, PathBuf};

/// One file's worth of lexed source: per-line code with comments and
/// literal contents blanked, plus the comment text per line.
struct Lexed {
    /// Code lines with comments/literals blanked to spaces.
    code: Vec<String>,
    /// Comment text collected per line (doc and block comments included).
    comments: Vec<String>,
}

/// Blank comments and string/char literal contents, keeping the line
/// structure. Handles nested block comments, raw strings with hashes,
/// byte strings/chars, escapes, and lifetimes.
fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments_flat = String::with_capacity(src.len());
    let mut i = 0usize;
    let n = bytes.len();

    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = bytes[i];
        match c {
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment: blank in code, keep in comments.
                while i < n && bytes[i] != '\n' {
                    code.push(' ');
                    comments_flat.push(bytes[i]);
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let mut depth = 0usize;
                while i < n {
                    if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        code.push_str("  ");
                        comments_flat.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        code.push_str("  ");
                        comments_flat.push_str("  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == '\n' {
                            code.push('\n');
                            comments_flat.push('\n');
                        } else {
                            code.push(' ');
                            comments_flat.push(bytes[i]);
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                // Plain string literal: keep the quotes, blank the contents.
                code.push('"');
                comments_flat.push(' ');
                i += 1;
                while i < n {
                    if bytes[i] == '\\' && i + 1 < n {
                        code.push_str("  ");
                        comments_flat.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '"' {
                        code.push('"');
                        comments_flat.push(' ');
                        i += 1;
                        break;
                    } else {
                        if bytes[i] == '\n' {
                            code.push('\n');
                            comments_flat.push('\n');
                        } else {
                            code.push(' ');
                            comments_flat.push(' ');
                        }
                        i += 1;
                    }
                }
            }
            'r' | 'b' if starts_raw_or_byte_string(&bytes, i) => {
                // r"…", r#"…"#, b"…", br#"…"# — skip prefix then hashes.
                let start = i;
                while i < n && (bytes[i] == 'r' || bytes[i] == 'b') {
                    i += 1;
                }
                let raw = bytes[start..i].contains(&'r');
                let mut hashes = 0usize;
                while raw && i < n && bytes[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                for _ in start..i {
                    code.push(' ');
                    comments_flat.push(' ');
                }
                if i < n && bytes[i] == '"' {
                    code.push('"');
                    comments_flat.push(' ');
                    i += 1;
                    'body: while i < n {
                        if !raw && bytes[i] == '\\' && i + 1 < n {
                            code.push_str("  ");
                            comments_flat.push_str("  ");
                            i += 2;
                            continue;
                        }
                        if bytes[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                code.push('"');
                                comments_flat.push(' ');
                                for _ in 0..hashes {
                                    code.push(' ');
                                    comments_flat.push(' ');
                                }
                                i += 1 + hashes;
                                break 'body;
                            }
                        }
                        if bytes[i] == '\n' {
                            code.push('\n');
                            comments_flat.push('\n');
                        } else {
                            code.push(' ');
                            comments_flat.push(' ');
                        }
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is ' followed by an
                // identifier not closed by another quote.
                let is_lifetime = i + 1 < n
                    && (is_ident(bytes[i + 1]))
                    && !(i + 2 < n && bytes[i + 2] == '\'')
                    && bytes[i + 1] != '\\';
                if is_lifetime {
                    code.push('\'');
                    comments_flat.push(' ');
                    i += 1;
                } else {
                    code.push('\'');
                    comments_flat.push(' ');
                    i += 1;
                    if i < n && bytes[i] == '\\' {
                        code.push_str("  ");
                        comments_flat.push_str("  ");
                        i += 2;
                        // Possibly multi-char escapes like \u{…}.
                        while i < n && bytes[i] != '\'' && bytes[i] != '\n' {
                            code.push(' ');
                            comments_flat.push(' ');
                            i += 1;
                        }
                    } else if i < n && bytes[i] != '\'' {
                        code.push(' ');
                        comments_flat.push(' ');
                        i += 1;
                    }
                    if i < n && bytes[i] == '\'' {
                        code.push('\'');
                        comments_flat.push(' ');
                        i += 1;
                    }
                }
            }
            _ => {
                code.push(c);
                comments_flat.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }

    Lexed {
        code: code.lines().map(str::to_string).collect(),
        comments: comments_flat.lines().map(str::to_string).collect(),
    }
}

fn starts_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    // r" r# b" br" br# — but not an identifier like `rate` or `br0ken`.
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    while j < bytes.len() && (bytes[j] == 'r' || bytes[j] == 'b') && j - i < 2 {
        j += 1;
    }
    if j == i {
        return false;
    }
    while j < bytes.len() && bytes[j] == '#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == '"'
}

/// Parse `mv-lint: allow(MVnnn[, MVmmm…])` suppressions out of one
/// line's comment text.
fn parse_allows(comment: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("mv-lint: allow(") {
        let after = &rest[pos + "mv-lint: allow(".len()..];
        if let Some(end) = after.find(')') {
            for code in after[..end].split(',') {
                out.push(code.trim());
            }
            rest = &after[end..];
        } else {
            break;
        }
    }
    out
}

/// Per-line rule suppression state for one file.
struct Allows {
    /// Rule codes allowed for the whole file (header suppressions).
    file: Vec<String>,
    /// Rule codes allowed per line (the comment's line and the next).
    lines: Vec<Vec<String>>,
}

impl Allows {
    fn permits(&self, code: &str, line_idx: usize) -> bool {
        if self.file.iter().any(|c| c == code) {
            return true;
        }
        let near = |i: usize| {
            self.lines
                .get(i)
                .is_some_and(|v| v.iter().any(|c| c == code))
        };
        near(line_idx) || (line_idx > 0 && near(line_idx - 1))
    }
}

fn collect_allows(lexed: &Lexed) -> Allows {
    let first_code_line = lexed
        .code
        .iter()
        .position(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("#!")
        })
        .unwrap_or(usize::MAX);
    let mut file = Vec::new();
    let mut lines = vec![Vec::new(); lexed.comments.len()];
    for (i, comment) in lexed.comments.iter().enumerate() {
        for code in parse_allows(comment) {
            if i < first_code_line {
                file.push(code.to_string());
            } else {
                lines[i].push(code.to_string());
            }
        }
    }
    Allows { file, lines }
}

/// Mark every line inside a `#[cfg(test)] mod … { … }` region.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        let squashed: String = code[i].chars().filter(|c| !c.is_whitespace()).collect();
        if squashed.contains("#[cfg(test)]") {
            // Find the opening brace of the item that follows (same line
            // or later), then skip to its matching close.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            'scan: while j < code.len() {
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // An item with no body: `mod name;`.
                        ';' if !opened => {
                            in_test[j] = true;
                            i = j;
                            break 'scan;
                        }
                        _ => {}
                    }
                    if opened && depth == 0 {
                        in_test[j] = true;
                        i = j;
                        break 'scan;
                    }
                }
                in_test[j] = true;
                j += 1;
                if j == code.len() {
                    i = j - 1;
                    break;
                }
            }
        }
        i += 1;
    }
    in_test
}

/// The function tracker MV203 needs: which `fn` a line belongs to and
/// whether that function has called `writer_guard()` so far.
struct FnTracker {
    stack: Vec<(i64, String, bool)>,
    depth: i64,
    pending: Option<String>,
}

impl FnTracker {
    fn new() -> Self {
        FnTracker {
            stack: Vec::new(),
            depth: 0,
            pending: None,
        }
    }

    /// Feed one blanked line *before* rule checks run on it; returns
    /// (current fn name, has the fn seen `writer_guard()` so far).
    fn observe(&mut self, line: &str, squashed: &str) -> (Option<String>, bool) {
        let declared = fn_name(line);
        let top_before = self.stack.last().cloned();
        let guard_here = squashed.contains("writer_guard(");
        if guard_here {
            if let Some(top) = self.stack.last_mut() {
                top.2 = true;
            }
        }
        // A one-line `fn f() { … }` belongs to the declared fn, not the
        // enclosing scope; its guard call can only be on this same line.
        let state = if declared.is_some() && line.contains('{') {
            (declared.clone(), guard_here)
        } else {
            (
                top_before.as_ref().map(|(_, n, _)| n.clone()),
                top_before.as_ref().is_some_and(|(_, _, g)| *g) || guard_here,
            )
        };
        if let Some(name) = declared {
            self.pending = Some(name);
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    self.depth += 1;
                    if let Some(name) = self.pending.take() {
                        self.stack.push((self.depth, name, false));
                    }
                }
                '}' => {
                    if self.stack.last().is_some_and(|(d, _, _)| *d == self.depth) {
                        self.stack.pop();
                    }
                    self.depth -= 1;
                }
                ';' => {
                    // `fn f();` — a signature with no body.
                    self.pending = None;
                }
                _ => {}
            }
        }
        state
    }
}

fn fn_name(line: &str) -> Option<String> {
    let pos = line.find("fn ")?;
    if pos > 0 {
        let prev = line.as_bytes()[pos - 1] as char;
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let rest = &line[pos + 3..];
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Files where MV201 raw primitives are legitimate: the facade itself,
/// the model checker's shims, and the bench driver's counters.
fn mv201_path_allowed(path: &str) -> bool {
    path.starts_with("crates/model/src")
        || path.starts_with("crates/bench/src")
        || path == "crates/core/src/sync.rs"
}

/// Files where MV202 relaxed orderings are legitimate: the statistics
/// counters, the model checker (which models them), and the bench driver.
fn mv202_path_allowed(path: &str) -> bool {
    path.starts_with("crates/model/src")
        || path.starts_with("crates/bench/src")
        || path == "crates/core/src/stats.rs"
}

/// Files where MV204 bare clock reads are legitimate.
fn mv204_path_allowed(path: &str) -> bool {
    path.starts_with("crates/bench/src")
}

fn finding(rule: RuleId, path: &str, line_idx: usize, message: String) -> Diagnostic {
    Diagnostic::error(rule, message).with_detail(format!("{path}:{}", line_idx + 1))
}

/// Lint one file's source text. `path` is the workspace-relative path
/// used for allowlisting and diagnostics.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let allows = collect_allows(&lexed);
    let in_test = test_regions(&lexed.code);
    let mut tracker = FnTracker::new();
    let mut out = Vec::new();

    for (i, line) in lexed.code.iter().enumerate() {
        let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        let (current_fn, saw_guard) = tracker.observe(line, &squashed);
        if in_test[i] {
            continue;
        }

        // MV201 — raw std sync primitives outside the facade.
        if !mv201_path_allowed(path) && !allows.permits("MV201", i) {
            let use_of_sync = line.trim_start().starts_with("use std::sync::")
                && ["Mutex", "RwLock", "atomic", "Condvar"]
                    .iter()
                    .any(|t| squashed.contains(t));
            if squashed.contains("std::sync::Mutex")
                || squashed.contains("std::sync::RwLock")
                || squashed.contains("std::sync::atomic")
                || use_of_sync
            {
                out.push(finding(
                    RuleId::RawSyncPrimitive,
                    path,
                    i,
                    "raw std::sync primitive outside the mv_core::sync facade; \
                     it is invisible to the mv-model schedule explorer"
                        .to_string(),
                ));
            }
        }

        // MV202 — Ordering::Relaxed outside the stats counters.
        if !mv202_path_allowed(path)
            && !allows.permits("MV202", i)
            && squashed.contains("Ordering::Relaxed")
        {
            out.push(finding(
                RuleId::RelaxedOrdering,
                path,
                i,
                "Ordering::Relaxed outside the statistics counters orders nothing; \
                 use the facade's acquire/release types or justify with an allow"
                    .to_string(),
            ));
        }

        // MV203 — engine snapshot field discipline.
        if !allows.permits("MV203", i) && squashed.contains("self.shared") {
            if squashed.contains("self.shared.load(") {
                if current_fn.as_deref() != Some("snapshot") {
                    out.push(finding(
                        RuleId::RawEngineState,
                        path,
                        i,
                        "published snapshot loaded outside the snapshot() accessor".to_string(),
                    ));
                }
            } else if squashed.contains("self.shared.store(") {
                if current_fn.as_deref() != Some("publish") {
                    out.push(finding(
                        RuleId::RawEngineState,
                        path,
                        i,
                        "snapshot published outside the publish() path".to_string(),
                    ));
                } else if !saw_guard {
                    out.push(finding(
                        RuleId::RawEngineState,
                        path,
                        i,
                        "snapshot published in a function that never took writer_guard()"
                            .to_string(),
                    ));
                }
            } else {
                out.push(finding(
                    RuleId::RawEngineState,
                    path,
                    i,
                    "published snapshot field used outside the load/store discipline".to_string(),
                ));
            }
        }

        // MV204 — unguarded clock reads.
        if !mv204_path_allowed(path)
            && !allows.permits("MV204", i)
            && squashed.contains("Instant::now")
            && !squashed.contains(".then(Instant::now)")
        {
            out.push(finding(
                RuleId::UnguardedClock,
                path,
                i,
                "bare Instant::now outside the timing gate; use \
                 `config.timing.then(Instant::now)` so model runs stay clock-free"
                    .to_string(),
            ));
        }

        // MV205 — .unwrap() on lock results in non-test code.
        if !allows.permits("MV205", i)
            && [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"]
                .iter()
                .any(|p| squashed.contains(*p))
        {
            out.push(finding(
                RuleId::UnwrapOnLock,
                path,
                i,
                "lock result unwrapped in non-test code; poisoning cascades — use \
                 mv_core::sync::lock_or_recover / read_or_recover / write_or_recover"
                    .to_string(),
            ));
        }

        // MV206 — .expect() on lock results in non-test code.
        if !allows.permits("MV206", i)
            && [".lock().expect(", ".read().expect(", ".write().expect("]
                .iter()
                .any(|p| squashed.contains(*p))
        {
            out.push(finding(
                RuleId::ExpectOnLock,
                path,
                i,
                "lock result expect()ed in non-test code; the message only renames the \
                 poisoning cascade — use mv_core::sync::lock_or_recover and friends"
                    .to_string(),
            ));
        }

        // MV207 — #[doc(hidden)] in non-test code.
        if !allows.permits("MV207", i) && squashed.contains("#[doc(hidden)]") {
            out.push(finding(
                RuleId::TestBackdoor,
                path,
                i,
                "#[doc(hidden)] in non-test code hides the item from the docs, not from \
                 callers; move a test-only hook into the #[cfg(test)] module that uses it"
                    .to_string(),
            ));
        }
    }
    out
}

/// Recursively collect the `.rs` files of every crate's `src/` tree under
/// `root/crates`, returning (workspace-relative path, absolute path).
fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    let mut rel = Vec::new();
    for p in out {
        let r = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        rel.push((r, p));
    }
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Run the MV2xx pass over every crate source file in the workspace at
/// `root`. Returns the findings plus the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let files = workspace_sources(root)?;
    let mut out = Vec::new();
    let scanned = files.len();
    for (rel, abs) in files {
        let src = std::fs::read_to_string(&abs)?;
        out.extend(lint_source(&rel, &src));
    }
    Ok((out, scanned))
}

/// Locate the workspace root by walking up from `start` until a
/// directory holding both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = String::from("// std::sync::Mutex in a comment\n")
            + "/* Ordering::Relaxed in a block comment */\n"
            + "fn f() {\n"
            + "    let s = \"std::sync::Mutex and Instant::now()\";\n"
            + "    let r = r#\"Ordering::Relaxed\"#;\n"
            + "    let c = '\\u{1F600}';\n"
            + "}\n";
        assert!(lint_source("crates/x/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn raw_mutex_fires_mv201() {
        let src =
            "use std::sync::Mutex;\nstatic M: std::sync::Mutex<u8> = std::sync::Mutex::new(0);\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(codes(&diags), vec!["MV201", "MV201"]);
    }

    #[test]
    fn facade_and_model_paths_are_allowlisted() {
        let src = "use std::sync::Mutex;\n";
        assert!(lint_source("crates/core/src/sync.rs", src).is_empty());
        assert!(lint_source("crates/model/src/exec.rs", src).is_empty());
        assert_eq!(
            codes(&lint_source("crates/core/src/engine.rs", src)),
            vec!["MV201"]
        );
    }

    #[test]
    fn relaxed_fires_mv202_except_stats() {
        let src = "fn f(a: &A) { a.x.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(
            codes(&lint_source("crates/core/src/engine.rs", src)),
            vec!["MV202"]
        );
        assert!(lint_source("crates/core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn engine_state_discipline_mv203() {
        let ok = "impl E {\n fn snapshot(&self) -> S { self.shared.load() }\n\
                  fn publish(&self) { let _g = self.writer_guard(); self.shared.store(x); }\n}\n";
        assert!(lint_source("crates/core/src/engine.rs", ok).is_empty());
        let bad_load = "impl E {\n fn peek(&self) -> S { self.shared.load() }\n}\n";
        assert_eq!(
            codes(&lint_source("crates/core/src/engine.rs", bad_load)),
            vec!["MV203"]
        );
        let bad_store = "impl E {\n fn publish(&self) { self.shared.store(x); }\n}\n";
        assert_eq!(
            codes(&lint_source("crates/core/src/engine.rs", bad_store)),
            vec!["MV203"]
        );
        // A guarded store is still flagged anywhere but `publish`.
        let stray_store = "impl E {\n fn add(&self) {\n  let _g = self.writer_guard();\n  \
                           self.shared.store(x);\n }\n}\n";
        let diags = lint_source("crates/core/src/register.rs", stray_store);
        assert_eq!(codes(&diags), vec!["MV203"]);
        assert!(
            diags[0].message.contains("publish()"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn clock_gate_mv204() {
        let gated = "fn f(t: bool) { let s = t.then(Instant::now); }\n";
        assert!(lint_source("crates/core/src/engine.rs", gated).is_empty());
        let bare = "fn f() { let s = Instant::now(); }\n";
        assert_eq!(
            codes(&lint_source("crates/core/src/engine.rs", bare)),
            vec!["MV204"]
        );
        assert!(lint_source("crates/bench/src/lib.rs", bare).is_empty());
    }

    #[test]
    fn lock_unwrap_mv205_and_test_regions() {
        let src = "fn f(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }\n}\n";
        assert_eq!(
            codes(&lint_source("crates/x/src/lib.rs", src)),
            vec!["MV205"]
        );
    }

    #[test]
    fn lock_expect_mv206_and_test_regions() {
        let src = "fn f(m: &Mutex<u8>) { let _ = m.lock().expect(\"poisoned\"); }\n\
                   fn g(r: &RwLock<u8>) { let _ = r.read().expect(\"poisoned\"); }\n\
                   #[cfg(test)]\nmod tests {\n  fn h(m: &Mutex<u8>) { let _ = m.lock().expect(\"x\"); }\n}\n";
        assert_eq!(
            codes(&lint_source("crates/x/src/lib.rs", src)),
            vec!["MV206", "MV206"]
        );
    }

    #[test]
    fn doc_hidden_mv207_and_test_regions() {
        let src = "impl E {\n  #[doc(hidden)]\n  pub fn corrupt(&mut self) {}\n}\n\
                   #[cfg(test)]\nmod tests {\n  #[doc(hidden)]\n  fn helper() {}\n}\n";
        assert_eq!(
            codes(&lint_source("crates/x/src/lib.rs", src)),
            vec!["MV207"]
        );
        // A body-less `#[cfg(test)] mod name;` exempts its own line only.
        let src = "#[cfg(test)]\nmod corruption;\n#[doc(hidden)]\npub fn hook() {}\n";
        assert_eq!(
            codes(&lint_source("crates/x/src/lib.rs", src)),
            vec!["MV207"]
        );
        let allowed =
            "fn f() {}\n// read-only: mv-lint: allow(MV207)\n#[doc(hidden)]\npub fn peek() {}\n";
        assert!(lint_source("crates/x/src/lib.rs", allowed).is_empty());
    }

    #[test]
    fn suppressions_line_and_header() {
        let line = "fn f(m: &Mutex<u8>) {\n  // justified: mv-lint: allow(MV205)\n  let _ = m.lock().unwrap();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", line).is_empty());
        let header = "// mv-lint: allow(MV201)\nuse std::sync::Mutex;\nfn f() { let m: std::sync::Mutex<u8> = std::sync::Mutex::new(0); }\n";
        assert!(lint_source("crates/x/src/lib.rs", header).is_empty());
        let wrong_rule = "// mv-lint: allow(MV204)\nuse std::sync::Mutex;\n";
        assert_eq!(
            codes(&lint_source("crates/x/src/lib.rs", wrong_rule)),
            vec!["MV201"]
        );
    }
}
