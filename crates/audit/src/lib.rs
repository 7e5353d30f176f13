//! `pcs-audit` — repo-specific static analysis for the pcs workspace.
//!
//! Two deliberate constraints shape this crate:
//!
//! * **No `syn`, no external dependencies.** Like the in-tree shims, it must
//!   build in a sealed environment. A hand-rolled token scanner
//!   ([`lexer`]) is exact about comments/strings/lifetimes, which is all the
//!   precision the rules below need.
//! * **Rules are positional, not type-aware.** Each rule is scoped to a
//!   designated file list (the hot paths the ROADMAP cares about), so token
//!   patterns plus local context are sufficient and false positives stay
//!   near zero.
//!
//! Rule catalog (ids as used in diagnostics and `audit:allow`):
//!
//! | id | scope | forbids |
//! |----|-------|---------|
//! | `no-panic` | hot-path modules | `.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `no-index` | hot-path modules | postfix slice/array indexing `expr[..]` |
//! | `store-cast` | `pcs-store` codec | narrowing `as` casts (`as u8/u16/u32/i8/i16/i32/VertexId/LabelId`) |
//! | `query-hash` | allocation-free query path | `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` |
//! | `instant-in-loop` | hot-path + engine | `Instant::now()` inside a loop body |
//! | `error-enum` | whole workspace | `pub enum *Error` without `#[non_exhaustive]` |
//! | `allow-malformed` | everywhere | `audit:allow` without a `(rule)` or `: reason` |
//! | `allow-unused` | everywhere | `audit:allow` that suppresses nothing |
//!
//! Suppression: `// audit:allow(<rule>): <reason>` on the offending line or
//! the line directly above. The reason is mandatory. For dense
//! invariant-backed regions (e.g. a validation loop that has already
//! bounds-checked its indices) the block form
//! `// audit:allow-block(<rule>): <reason>` placed before a `{ ... }` block
//! covers that entire block with one documented justification.
//!
//! `#[cfg(test)]` items (modules, functions, impls) are skipped entirely:
//! test code is allowed to panic.

#![deny(unsafe_code)]

pub mod lexer;

use lexer::{lex, TokKind, Token};
use std::fmt;
use std::path::{Path, PathBuf};

pub const RULE_NO_PANIC: &str = "no-panic";
pub const RULE_NO_INDEX: &str = "no-index";
pub const RULE_STORE_CAST: &str = "store-cast";
pub const RULE_QUERY_HASH: &str = "query-hash";
pub const RULE_INSTANT_IN_LOOP: &str = "instant-in-loop";
pub const RULE_ERROR_ENUM: &str = "error-enum";
pub const RULE_ALLOW_MALFORMED: &str = "allow-malformed";
pub const RULE_ALLOW_UNUSED: &str = "allow-unused";

/// One diagnostic. Rendered as `path:line:col: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// Which rules apply to which files, expressed as path suffixes
/// (`crates/core/src/verify.rs` style, matched with `ends_with`).
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// `no-panic` + `no-index`: the designated hot-path modules.
    pub hot_path: Vec<String>,
    /// `store-cast`: the snapshot codec.
    pub store_codec: Vec<String>,
    /// `query-hash`: the allocation-free query path.
    pub query_alloc_free: Vec<String>,
    /// `instant-in-loop`: files with per-vertex loops worth guarding.
    pub instant_loops: Vec<String>,
}

impl RuleConfig {
    /// The workspace's designated hot paths. Adding a module to the serving
    /// tier means adding it here — the lint is the contract.
    pub fn workspace_default() -> Self {
        let hot: &[&str] = &[
            // pcs-core query execution (the PR 3 allocation-free path)
            "crates/core/src/verify.rs",
            "crates/core/src/basic.rs",
            "crates/core/src/advanced.rs",
            "crates/core/src/incre.rs",
            "crates/core/src/closed.rs",
            "crates/core/src/indexed.rs",
            // pcs-index read / materialization path
            "crates/index/src/cltree.rs",
            "crates/index/src/sharded.rs",
            "crates/index/src/communities.rs",
            // pcs-engine snapshot read path
            "crates/engine/src/snapshot.rs",
            "crates/engine/src/persist.rs",
            // result-cache lookup/fill runs on every cached query and
            // inside every epoch publish (carry_surviving)
            "crates/engine/src/cache.rs",
            // pcs-store decode path: must return typed StoreError, never panic
            "crates/store/src/codec.rs",
            "crates/store/src/format.rs",
            // lazy-load hot path: positioned reads + deferred decode
            // run on every replica first touch
            "crates/store/src/source.rs",
            "crates/store/src/lazy.rs",
            // WAL hot path: append/commit run inside every durable
            // apply, and the recovery reader must fail typed, not
            // panic, on arbitrary on-disk bytes
            "crates/store/src/wal.rs",
            "crates/engine/src/durable.rs",
        ];
        let store: &[&str] = &[
            "crates/store/src/codec.rs",
            "crates/store/src/format.rs",
            "crates/store/src/source.rs",
            "crates/store/src/lazy.rs",
            "crates/store/src/wal.rs",
            "crates/engine/src/durable.rs",
        ];
        let query: &[&str] = &[
            "crates/core/src/verify.rs",
            "crates/core/src/basic.rs",
            "crates/core/src/advanced.rs",
            "crates/core/src/incre.rs",
            "crates/core/src/closed.rs",
            "crates/core/src/indexed.rs",
        ];
        let mut instant: Vec<String> = hot.iter().map(|s| s.to_string()).collect();
        instant.push("crates/engine/src/engine.rs".to_string());
        let mut hot_path: Vec<String> = hot.iter().map(|s| s.to_string()).collect();
        // pcs-serve request path: panic-free and index-free like the
        // rest of the serving tier. Deliberately NOT in `instant_loops`:
        // its loops are connection-scale (accept, poll, batch-gather),
        // not per-vertex, and taking timestamps inside them is the
        // mechanism for keep-alive timeouts and batch windows.
        for f in [
            "crates/serve/src/http.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/batch.rs",
            "crates/serve/src/replica.rs",
        ] {
            hot_path.push(f.to_string());
        }
        RuleConfig {
            hot_path,
            store_codec: store.iter().map(|s| s.to_string()).collect(),
            query_alloc_free: query.iter().map(|s| s.to_string()).collect(),
            instant_loops: instant,
        }
    }

    fn matches(list: &[String], path: &str) -> bool {
        list.iter().any(|s| path.ends_with(s.as_str()))
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield", "Self", "self",
];

const NARROW_CAST_TARGETS: &[&str] =
    &["u8", "u16", "u32", "i8", "i16", "i32", "VertexId", "LabelId"];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Lint one file's source text. `path` is only used for rule scoping and
/// diagnostics; nothing is read from disk.
pub fn check_source(path: &str, src: &str, cfg: &RuleConfig) -> Vec<Finding> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let skip = cfg_test_skip_mask(toks);

    let is_hot = RuleConfig::matches(&cfg.hot_path, path);
    let is_store = RuleConfig::matches(&cfg.store_codec, path);
    let is_query = RuleConfig::matches(&cfg.query_alloc_free, path);
    let is_instant = RuleConfig::matches(&cfg.instant_loops, path);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |tok: &Token, rule: &'static str, message: String| {
        raw.push(Finding { path: path.to_string(), line: tok.line, col: tok.col, rule, message });
    };

    // Brace stack: `true` frames are loop bodies. `pending_loop` is armed by
    // a `for`/`while`/`loop` keyword and consumed by the next `{`.
    let mut brace_stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    let mut in_loop_depth = 0usize;

    // Index of the previous non-skipped token, for local-context rules.
    let mut prev: Option<usize> = None;

    for i in 0..toks.len() {
        if skip[i] {
            continue;
        }
        let t = &toks[i];
        let next = next_unskipped(toks, &skip, i);

        match &t.kind {
            TokKind::Punct('{') => {
                brace_stack.push(pending_loop);
                if pending_loop {
                    in_loop_depth += 1;
                }
                pending_loop = false;
            }
            TokKind::Punct('}') => {
                if let Some(was_loop) = brace_stack.pop() {
                    if was_loop {
                        in_loop_depth -= 1;
                    }
                }
            }
            TokKind::Punct('[') if is_hot => {
                if let Some(p) = prev {
                    let pt = &toks[p];
                    let indexes = match &pt.kind {
                        TokKind::Ident => !KEYWORDS.contains(&pt.text.as_str()),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        TokKind::Literal => true,
                        _ => false,
                    };
                    if indexes {
                        push(
                            t,
                            RULE_NO_INDEX,
                            "slice indexing in hot-path module can panic; use a checked accessor or document the invariant with audit:allow".to_string(),
                        );
                    }
                }
            }
            TokKind::Ident => {
                let text = t.text.as_str();
                match text {
                    "for" | "while" | "loop" => pending_loop = true,
                    "unwrap" | "expect"
                        if is_hot
                            && prev.is_some_and(|p| toks[p].kind == TokKind::Punct('.'))
                            && next.is_some_and(|n| toks[n].kind == TokKind::Punct('(')) =>
                    {
                        push(
                            t,
                            RULE_NO_PANIC,
                            format!(".{text}() in hot-path module; return a typed error instead"),
                        );
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if is_hot && next.is_some_and(|n| toks[n].kind == TokKind::Punct('!')) =>
                    {
                        push(
                            t,
                            RULE_NO_PANIC,
                            format!("{text}! in hot-path module; return a typed error instead"),
                        );
                    }
                    "as" if is_store => {
                        if let Some(n) = next {
                            if toks[n].kind == TokKind::Ident
                                && NARROW_CAST_TARGETS.contains(&toks[n].text.as_str())
                            {
                                push(
                                    &toks[n],
                                    RULE_STORE_CAST,
                                    format!(
                                        "narrowing `as {}` in store codec can silently wrap; use try_into() and surface StoreError::Corrupt",
                                        toks[n].text
                                    ),
                                );
                            }
                        }
                    }
                    _ if is_query && HASH_TYPES.contains(&text) => {
                        push(
                            t,
                            RULE_QUERY_HASH,
                            format!("{text} in the allocation-free query path; use the pooled scratch buffers"),
                        );
                    }
                    "Instant"
                        if is_instant
                            && in_loop_depth > 0
                            && is_path_call(toks, &skip, i, "now") =>
                    {
                        push(
                            t,
                            RULE_INSTANT_IN_LOOP,
                            "Instant::now() inside a loop body; hoist the clock read out of the per-vertex loop".to_string(),
                        );
                    }
                    "enum"
                        if prev.is_some_and(|p| {
                            toks[p].kind == TokKind::Ident && toks[p].text == "pub"
                        }) =>
                    {
                        if let Some(n) = next {
                            if toks[n].kind == TokKind::Ident && toks[n].text.ends_with("Error") {
                                let pub_idx = prev.unwrap_or(i);
                                if !attrs_contain(toks, pub_idx, "non_exhaustive") {
                                    push(
                                        &toks[n],
                                        RULE_ERROR_ENUM,
                                        format!(
                                            "public error enum {} must be #[non_exhaustive] so variants can be added without a breaking change",
                                            toks[n].text
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        prev = Some(i);
    }

    apply_allows(path, raw, &lexed.allows, toks)
}

/// Match `Instant :: now` starting at token `i` (which holds `Instant`).
fn is_path_call(toks: &[Token], skip: &[bool], i: usize, method: &str) -> bool {
    let mut rest = (i + 1..toks.len()).filter(|&j| !skip[j]);
    let (Some(a), Some(b), Some(c)) = (rest.next(), rest.next(), rest.next()) else {
        return false;
    };
    toks[a].kind == TokKind::Punct(':')
        && toks[b].kind == TokKind::Punct(':')
        && toks[c].kind == TokKind::Ident
        && toks[c].text == method
}

fn next_unskipped(toks: &[Token], skip: &[bool], i: usize) -> Option<usize> {
    (i + 1..toks.len()).find(|&j| !skip[j])
}

/// Walk the attribute groups immediately preceding token `before` (e.g. the
/// `pub` of `pub enum`) and report whether any contains `needle` as an ident.
fn attrs_contain(toks: &[Token], before: usize, needle: &str) -> bool {
    let mut end = before;
    loop {
        if end == 0 {
            return false;
        }
        let close = end - 1;
        if toks[close].kind != TokKind::Punct(']') {
            return false;
        }
        // scan back to the matching `[`
        let mut depth = 1i32;
        let mut open = close;
        while open > 0 && depth > 0 {
            open -= 1;
            match toks[open].kind {
                TokKind::Punct(']') => depth += 1,
                TokKind::Punct('[') => depth -= 1,
                _ => {}
            }
        }
        if depth != 0 || open == 0 {
            return false;
        }
        let hash = open - 1;
        if toks[hash].kind != TokKind::Punct('#') {
            return false;
        }
        if toks[open..close].iter().any(|t| t.kind == TokKind::Ident && t.text == needle) {
            return true;
        }
        end = hash;
    }
}

/// Mark every token inside a `#[cfg(test)]` item (the attribute itself, the
/// item header, and its balanced `{...}` body or trailing `;`).
fn cfg_test_skip_mask(toks: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].kind == TokKind::Punct('#')
            && toks[i + 1].kind == TokKind::Punct('[')
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2].text == "cfg"
            && toks[i + 3].kind == TokKind::Punct('(')
            && toks[i + 4].kind == TokKind::Ident
            && toks[i + 4].text == "test"
            && toks[i + 5].kind == TokKind::Punct(')')
            && toks[i + 6].kind == TokKind::Punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip forward past one item: either a balanced brace block or a
        // top-level `;` (e.g. `#[cfg(test)] mod harness;`).
        let mut j = i + 7;
        let mut depth = 0i32;
        let end = loop {
            if j >= toks.len() {
                break toks.len() - 1;
            }
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break j;
                    }
                }
                TokKind::Punct(';') if depth == 0 => break j,
                _ => {}
            }
            j += 1;
        };
        for s in skip.iter_mut().take(end + 1).skip(i) {
            *s = true;
        }
        i = end + 1;
    }
    skip
}

/// Filter raw findings through the allow comments; emit hygiene findings for
/// malformed or unused allows.
fn apply_allows(
    path: &str,
    raw: Vec<Finding>,
    allows: &[lexer::AllowComment],
    toks: &[Token],
) -> Vec<Finding> {
    let mut used = vec![false; allows.len()];
    let mut out: Vec<Finding> = Vec::new();

    // For the block form, coverage is the line span of the first `{...}`
    // block opening at or after the comment line.
    let coverage: Vec<(u32, u32)> = allows
        .iter()
        .map(|a| {
            if !a.block {
                return (a.line, a.line + 1);
            }
            let Some(open) =
                toks.iter().position(|t| t.line >= a.line && t.kind == TokKind::Punct('{'))
            else {
                return (a.line, a.line);
            };
            let mut depth = 0i32;
            let mut close_line = toks[open].line;
            for t in &toks[open..] {
                match t.kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            close_line = t.line;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            (a.line, close_line)
        })
        .collect();

    'findings: for f in raw {
        for (ai, a) in allows.iter().enumerate() {
            let (lo, hi) = coverage[ai];
            if f.line >= lo && f.line <= hi && a.rule == f.rule && !a.reason.is_empty() {
                used[ai] = true;
                continue 'findings;
            }
        }
        out.push(f);
    }

    for (ai, a) in allows.iter().enumerate() {
        if a.rule.is_empty() || a.reason.is_empty() {
            out.push(Finding {
                path: path.to_string(),
                line: a.line,
                col: 1,
                rule: RULE_ALLOW_MALFORMED,
                message: "audit:allow must name a rule and give a reason: // audit:allow(<rule>): <why this site cannot fail>".to_string(),
            });
        } else if !used[ai] {
            out.push(Finding {
                path: path.to_string(),
                line: a.line,
                col: 1,
                rule: RULE_ALLOW_UNUSED,
                message: format!(
                    "audit:allow({}) suppresses nothing in its coverage span; remove it",
                    a.rule
                ),
            });
        }
    }

    out.sort_by_key(|f| (f.line, f.col));
    out
}

/// Recursively collect workspace `.rs` files, skipping build output, VCS
/// metadata, and the lint's own fixture corpus (which is intentionally bad).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if name == "fixtures" && dir.ends_with("crates/audit/tests") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run the full check over a workspace rooted at `root`.
pub fn run_check(root: &Path, cfg: &RuleConfig) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        findings.extend(check_source(&rel, &src, cfg));
    }
    Ok(findings)
}
