//! The symbol-aware rules LX07–LX12, built on the parse layer
//! ([`crate::parse`]) and the workspace symbol table
//! ([`crate::symbols`]).
//!
//! | rule | invariant |
//! |------|-----------|
//! | LX07 | no `Instant::now()` / `SystemTime` outside the allowlisted clock boundary — all timing through `obs::Stopwatch` |
//! | LX08 | lock discipline: no second `MutexGuard` acquired, and no `Condvar::wait` on a foreign guard, while another guard is live in the same scope |
//! | LX09 | no raw `std::thread::spawn` outside the pool crate — all parallelism through the scoped pool |
//! | LX10 | no `std::env::var` outside the audited `bench::cli` gateway — hidden config breaks reproducibility |
//! | LX11 | an `Ordering::Relaxed` load that feeds a branch carries a `// lexlint: why` justification |
//! | LX12 | `File::create` / `fs::write` / `BufWriter::new` / `JsonlSink::new` targeting `results/` routes through `atomic_write` (taint-tracked through local `let` bindings) |
//!
//! LX08 is where the symbol table earns its keep: a call to any
//! workspace `pub fn` whose return type mentions `MutexGuard` (e.g.
//! `bench::sweep::bin_state()`) counts as acquiring a lock, exactly
//! like a literal `.lock()`. LX11 uses the parse layer the same way:
//! a Relaxed load in a `-> bool` function is branch-feeding even when
//! the `if` lives at the (unseen) call site.
//!
//! Suppression works as for LX01–LX06: inline
//! `// lexlint: allow(LXnn): reason`, `[[allow]]` entries, plus
//! per-rule `allow_paths` prefixes in `lexlint.toml` for the files
//! that *implement* the sanctioned abstraction.

use crate::config::Config;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parse::FileAst;
use crate::rules::{self, Finding, Suggestion};
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// Checks one parsed file against LX07–LX12; returns surviving
/// findings (inline, config and path suppressions already applied).
pub fn check_file_x(
    file: &str,
    src: &str,
    lexed: &Lexed,
    ast: &FileAst,
    symbols: &SymbolTable,
    cfg: &Config,
) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let toks = &lexed.toks;
    let test_regions = rules::test_mod_regions(toks);
    let in_test = |line: usize| test_regions.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: usize, sug: Option<Suggestion>| {
        let snippet = lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        raw.push(Finding {
            rule,
            file: file.to_string(),
            line,
            snippet,
            hint: rules::hint_for(rule),
            suggestion: sug,
        });
    };

    let lx07 = !cfg.rule_path_allowed("LX07", file);
    let lx08 = !cfg.rule_path_allowed("LX08", file);
    let lx09 = !cfg.rule_path_allowed("LX09", file);
    let lx10 = !cfg.rule_path_allowed("LX10", file);
    let lx12 = !cfg.rule_path_allowed("LX12", file);

    // ---- import-level bans (use-resolution) --------------------------
    for u in &ast.uses {
        if in_test(u.line) {
            continue;
        }
        let p: Vec<&str> = u.path.iter().map(String::as_str).collect();
        if lx07 && (p.ends_with(&["time", "Instant"]) || p.contains(&"SystemTime")) {
            push("LX07", u.line, None);
        }
        if lx09 && p.ends_with(&["thread", "spawn"]) {
            push("LX09", u.line, None);
        }
        if lx10 && (p.ends_with(&["env", "var"]) || p.ends_with(&["env", "var_os"])) {
            push("LX10", u.line, None);
        }
    }

    // ---- token-level scans (LX07 / LX09 / LX10 / LX11) ---------------
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        if lx07 {
            if t.text == "Instant" && path_call(toks, i, "now") && !rules::prev_is_dot(toks, i) {
                let sug = lines
                    .get(t.line.saturating_sub(1))
                    .filter(|l| l.contains("std::time::Instant::now()"))
                    .map(|_| Suggestion {
                        find: "std::time::Instant::now()".to_string(),
                        replace: "lexcache_runner::clock::Stopwatch::start()".to_string(),
                    });
                push("LX07", t.line, sug);
            }
            if t.text == "SystemTime" {
                push("LX07", t.line, None);
            }
        }
        if lx09 && t.text == "thread" && path_call(toks, i, "spawn") && !rules::prev_is_dot(toks, i)
        {
            push("LX09", t.line, None);
        }
        if lx10
            && t.text == "env"
            && (path_call(toks, i, "var") || path_call(toks, i, "var_os"))
            && !rules::prev_is_dot(toks, i)
        {
            push("LX10", t.line, None);
        }
        if t.text == "load"
            && rules::prev_is_dot(toks, i)
            && rules::next_is(toks, i, "(")
            && relaxed_args(toks, i + 1)
            && branch_feeding(toks, i, ast)
            && !rules::has_why_comment(&lexed.comments, t.line)
        {
            push("LX11", t.line, None);
        }
    }

    // ---- per-function scans (LX08 / LX12) ----------------------------
    let local_guards: BTreeSet<&str> = ast
        .fns
        .iter()
        .filter(|f| f.ret.iter().any(|r| r == "MutexGuard"))
        .map(|f| f.name.as_str())
        .collect();

    for f in &ast.fns {
        if f.body.is_empty() || in_test(f.line) {
            continue;
        }
        // Skip bodies of fns nested inside this one — they are scanned
        // as their own scopes.
        let nested: Vec<std::ops::Range<usize>> = ast
            .fns
            .iter()
            .filter(|g| g.body.start > f.body.start && g.body.end < f.body.end)
            .map(|g| g.body.clone())
            .collect();
        if lx08 {
            lock_discipline(
                toks,
                f.body.clone(),
                &nested,
                &local_guards,
                symbols,
                &mut push,
            );
        }
        if lx12 {
            results_write_sites(toks, f.body.clone(), &nested, &mut push);
        }
    }

    raw.into_iter()
        .filter(|f| !rules::inline_suppressed(&lexed.comments, f))
        .filter(|f| !cfg.is_allowed(f.rule, &f.file, &f.snippet))
        .collect()
}

/// Whether `toks[i]` is followed by `:: name (` — a path call such as
/// `Instant::now(` / `thread::spawn(` / `env::var(`.
fn path_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false)
        && toks.get(i + 2).map(|t| t.is_ident(name)).unwrap_or(false)
        && toks.get(i + 3).map(|t| t.is_punct("(")).unwrap_or(false)
}

/// Whether the balanced argument list opening at `toks[open]` (`(`)
/// mentions the ident `Relaxed`.
fn relaxed_args(toks: &[Tok], open: usize) -> bool {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        if toks[k].is_punct("(") {
            depth += 1;
        } else if toks[k].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if toks[k].is_ident("Relaxed") {
            return true;
        }
        k += 1;
    }
    false
}

/// Whether the `.load(` at `toks[i]` feeds a branch: an `if` / `while`
/// / `match` head earlier in the same statement, or an enclosing
/// function that returns `bool` (the branch then lives at the call
/// site).
fn branch_feeding(toks: &[Tok], i: usize, ast: &FileAst) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &toks[j - 1];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        if p.is_ident("if") || p.is_ident("while") || p.is_ident("match") {
            return true;
        }
        j -= 1;
    }
    ast.enclosing_fn(i)
        .map(|f| f.ret.iter().any(|r| r == "bool"))
        .unwrap_or(false)
}

/// LX08 walker: tracks live `MutexGuard` bindings through one function
/// body and flags (a) an acquisition while another guard is live, and
/// (b) a `Condvar::wait` / `wait_timeout` whose consumed guard leaves
/// another guard held (waiting on one's *own* single guard is the
/// sanctioned condvar pattern).
fn lock_discipline(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    nested: &[std::ops::Range<usize>],
    local_guards: &BTreeSet<&str>,
    symbols: &SymbolTable,
    push: &mut impl FnMut(&'static str, usize, Option<Suggestion>),
) {
    let mut depth = 0i32;
    let mut live: Vec<(String, i32)> = Vec::new();
    // Pending `let [mut] name` whose initializer we are inside.
    let mut pending: Option<(String, i32)> = None;

    let mut i = body.start + 1;
    let end = body.end.saturating_sub(1);
    while i < end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            live.retain(|&(_, d)| d <= depth);
        } else if t.is_punct(";") {
            pending = None;
        } else if t.is_ident("let") {
            // `let [mut] name` followed by `:` or `=` names a binding.
            let mut k = i + 1;
            if toks.get(k).map(|x| x.is_ident("mut")).unwrap_or(false) {
                k += 1;
            }
            let name = toks.get(k).filter(|x| x.kind == TokKind::Ident);
            let shaped = toks
                .get(k + 1)
                .map(|x| x.is_punct(":") || x.is_punct("="))
                .unwrap_or(false);
            if let (Some(name), true) = (name, shaped) {
                pending = Some((name.text.clone(), depth));
            }
        } else if t.is_ident("drop") && rules::next_is(toks, i, "(") {
            if let Some(name) = toks.get(i + 2).filter(|x| x.kind == TokKind::Ident) {
                live.retain(|(n, _)| n != &name.text);
            }
        } else if (t.is_ident("wait") || t.is_ident("wait_timeout"))
            && rules::prev_is_dot(toks, i)
            && rules::next_is(toks, i, "(")
        {
            // First ident inside the args is the consumed guard.
            let consumed = toks
                .get(i + 2)
                .filter(|x| x.kind == TokKind::Ident)
                .map(|x| x.text.clone());
            let consumed_live = consumed
                .as_ref()
                .map(|c| live.iter().any(|(n, _)| n == c))
                .unwrap_or(false);
            if consumed_live {
                if live.len() > 1 {
                    push("LX08", t.line, None);
                }
                if let Some(c) = &consumed {
                    live.retain(|(n, _)| n != c);
                }
            } else if !live.is_empty() {
                push("LX08", t.line, None);
            }
        } else {
            let acquires = (t.is_ident("lock")
                && rules::prev_is_dot(toks, i)
                && rules::next_is(toks, i, "("))
                || (t.kind == TokKind::Ident
                    && rules::next_is(toks, i, "(")
                    && !preceded_by_fn_kw(toks, i)
                    && (local_guards.contains(t.text.as_str()) || symbols.acquires_guard(&t.text)));
            if acquires {
                if !live.is_empty() {
                    push("LX08", t.line, None);
                }
                if let Some((name, d)) = pending.take() {
                    live.push((name, d));
                }
            }
        }
        i += 1;
    }
}

/// Whether `toks[i]` is the name in a `fn name(` definition (so guard-
/// returning fns do not flag their own declaration).
fn preceded_by_fn_kw(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_ident("fn")
}

/// LX12 walker: flags `File::create(…)` / `fs::write(…)` — and the
/// buffered/sink wrappers `BufWriter::new(…)` / `JsonlSink::new(…)`
/// that hide the same unbuffered write — whose argument mentions
/// `results`: directly as a string literal, via a `results_dir()`
/// call, or transitively through tainted `let` bindings
/// (`let tmp = format!("{path}.tmp")` where `path` came from
/// `results_dir()`).
fn results_write_sites(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    nested: &[std::ops::Range<usize>],
    push: &mut impl FnMut(&'static str, usize, Option<Suggestion>),
) {
    // Pass 1: forward taint through let bindings.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut i = body.start + 1;
    let end = body.end.saturating_sub(1);
    while i < end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).map(|x| x.is_ident("mut")).unwrap_or(false) {
                k += 1;
            }
            if let Some(name) = toks.get(k).filter(|x| x.kind == TokKind::Ident) {
                // Initializer tokens up to the statement's `;`.
                let mut j = k + 1;
                let mut dirty = false;
                while j < end && !toks[j].is_punct(";") {
                    dirty = dirty || mentions_results(&toks[j], &tainted);
                    j += 1;
                }
                if dirty {
                    tainted.insert(name.text.clone());
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: sinks.
    let mut i = body.start + 1;
    while i < end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &toks[i];
        let sink = (t.is_ident("File") && path_call(toks, i, "create"))
            || (t.is_ident("fs") && path_call(toks, i, "write"))
            || (t.is_ident("BufWriter") && path_call(toks, i, "new"))
            || (t.is_ident("JsonlSink") && path_call(toks, i, "new"));
        if sink {
            // Balanced argument list opens at i + 3.
            let mut depth = 0i32;
            let mut j = i + 3;
            let mut hits = false;
            while j < toks.len() {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    hits = hits || mentions_results(&toks[j], &tainted);
                }
                j += 1;
            }
            if hits {
                push("LX12", toks[i + 2].line, None);
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Whether one token carries `results`-taint: the `results_dir`
/// helper, a string literal mentioning `results`, an already tainted
/// binding — as a bare ident or implicitly captured in a format
/// string (`format!("{path}.tmp")`).
fn mentions_results(t: &Tok, tainted: &BTreeSet<String>) -> bool {
    match t.kind {
        TokKind::Ident => t.text == "results_dir" || tainted.contains(&t.text),
        TokKind::Str => {
            t.text.contains("results")
                || tainted.iter().any(|n| {
                    t.text.contains(&format!("{{{n}}}")) || t.text.contains(&format!("{{{n}:"))
                })
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn findings(src: &str) -> Vec<(String, usize)> {
        findings_with(src, &SymbolTable::default())
    }

    fn findings_with(src: &str, symbols: &SymbolTable) -> Vec<(String, usize)> {
        let cfg = Config::default();
        let lexed = lex(src);
        let ast = parse(&lexed.toks);
        check_file_x("crates/x/src/lib.rs", src, &lexed, &ast, symbols, &cfg)
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn lx07_flags_instant_now_and_systemtime() {
        let got = findings(
            "use std::time::Instant;\n\
             fn f() -> f64 {\n\
                 let t = std::time::Instant::now();\n\
                 t.elapsed().as_secs_f64()\n\
             }\n\
             fn g() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
        );
        let lx07: Vec<usize> = got
            .iter()
            .filter(|(r, _)| r == "LX07")
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(lx07, vec![1, 3, 6, 6], "import, call site, ret type + call");
    }

    #[test]
    fn lx07_call_carries_mechanical_suggestion() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let cfg = Config::default();
        let lexed = lex(src);
        let ast = parse(&lexed.toks);
        let fs = check_file_x("x.rs", src, &lexed, &ast, &SymbolTable::default(), &cfg);
        let sug = fs[0].suggestion.clone();
        assert_eq!(
            sug,
            Some(Suggestion {
                find: "std::time::Instant::now()".to_string(),
                replace: "lexcache_runner::clock::Stopwatch::start()".to_string(),
            })
        );
    }

    #[test]
    fn lx07_silent_in_tests_and_allowed_paths() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let x = std::time::Instant::now(); }\n}\n";
        assert!(findings(src).is_empty(), "test regions are exempt");

        let cfg = Config {
            lx07_allow: vec!["crates/runner/src/clock.rs".to_string()],
            ..Config::default()
        };
        let body = "fn f() { let t = std::time::Instant::now(); }\n";
        let lexed = lex(body);
        let ast = parse(&lexed.toks);
        let fs = check_file_x(
            "crates/runner/src/clock.rs",
            body,
            &lexed,
            &ast,
            &SymbolTable::default(),
            &cfg,
        );
        assert!(fs.is_empty(), "the clock boundary itself is allowlisted");
    }

    #[test]
    fn lx08_second_guard_in_scope_is_flagged() {
        let got = findings(
            "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                 let ga = a.lock().unwrap_or_default();\n\
                 let gb = b.lock().unwrap_or_default();\n\
             }\n",
        );
        assert_eq!(got, vec![("LX08".to_string(), 3)]);
    }

    #[test]
    fn lx08_sequential_scopes_are_clean() {
        let got = findings(
            "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                 { let ga = a.lock().unwrap_or_default(); }\n\
                 { let gb = b.lock().unwrap_or_default(); }\n\
             }\n\
             fn g(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                 let ga = a.lock().unwrap_or_default();\n\
                 drop(ga);\n\
                 let gb = b.lock().unwrap_or_default();\n\
             }\n",
        );
        assert!(got.is_empty(), "braces and drop() both release: {got:?}");
    }

    #[test]
    fn lx08_condvar_wait_on_own_guard_is_sanctioned() {
        // The JobQueue::pop / watchdog shape: one guard, consumed by wait.
        let got = findings(
            "fn pop(q: &Q) -> usize {\n\
                 let mut st = q.state.lock().unwrap_or_default();\n\
                 loop {\n\
                     if st.next < st.len { return st.next; }\n\
                     st = q.ready.wait(st).unwrap_or_default();\n\
                 }\n\
             }\n",
        );
        assert!(
            got.is_empty(),
            "single-guard condvar wait is the idiom: {got:?}"
        );
    }

    #[test]
    fn lx08_wait_while_second_guard_live_is_flagged() {
        let got = findings(
            "fn f(q: &Q, m: &Mutex<u8>) {\n\
                 let g = q.state.lock().unwrap_or_default();\n\
                 let extra = m.lock().unwrap_or_default();\n\
                 let g = q.ready.wait(g).unwrap_or_default();\n\
             }\n",
        );
        assert_eq!(
            got,
            vec![("LX08".to_string(), 3), ("LX08".to_string(), 4)],
            "second acquisition flags, and waiting with `extra` still held flags"
        );
    }

    #[test]
    fn lx08_uses_workspace_symbols_for_guard_returning_fns() {
        let other =
            parse(&lex("pub fn bin_state() -> MutexGuard<'static, u8> { S.lock().unwrap() }").toks);
        let symbols = crate::symbols::build([&other]);
        let got = findings_with(
            "fn f(m: &Mutex<u8>) {\n\
                 let g = m.lock().unwrap_or_default();\n\
                 let s = bin_state();\n\
             }\n",
            &symbols,
        );
        assert_eq!(
            got,
            vec![("LX08".to_string(), 3)],
            "cross-file acquisition seen"
        );
    }

    #[test]
    fn lx09_flags_raw_spawn_but_not_scoped() {
        let got = findings(
            "use std::thread::spawn;\n\
             fn f() {\n\
                 let h = std::thread::spawn(|| 1);\n\
                 std::thread::scope(|s| { s.spawn(|| 2); });\n\
             }\n",
        );
        assert_eq!(
            got,
            vec![("LX09".to_string(), 1), ("LX09".to_string(), 3)],
            "import + raw spawn flagged, scope.spawn clean"
        );
    }

    #[test]
    fn lx10_flags_env_var_but_not_args() {
        let got = findings(
            "fn f() -> Option<String> {\n\
                 let _ = std::env::args();\n\
                 std::env::var(\"LEXCACHE_SEED\").ok()\n\
             }\n",
        );
        assert_eq!(got, vec![("LX10".to_string(), 3)]);
    }

    #[test]
    fn lx11_branchy_relaxed_load_needs_why() {
        let bare = "fn f(a: &AtomicBool) { if a.load(Ordering::Relaxed) { go(); } }\n";
        assert_eq!(findings(bare), vec![("LX11".to_string(), 1)]);

        let justified = "fn f(a: &AtomicBool) {\n\
                 // lexlint: why stale read only delays one poll tick\n\
                 if a.load(Ordering::Relaxed) { go(); }\n\
             }\n";
        assert!(findings(justified).is_empty());

        let ret_bool = "fn on(a: &AtomicBool) -> bool { a.load(Ordering::Relaxed) }\n";
        assert_eq!(
            findings(ret_bool),
            vec![("LX11".to_string(), 1)],
            "-> bool fns feed branches at the call site"
        );

        let straight = "fn f(a: &AtomicU64) { let v = a.load(Ordering::Relaxed); rec(v); }\n";
        assert!(findings(straight).is_empty(), "non-branching load is fine");
    }

    #[test]
    fn lx12_flags_results_writes_through_taint() {
        let got = findings(
            "fn f() {\n\
                 let path = format!(\"{}/out.json\", results_dir());\n\
                 let tmp = format!(\"{}.tmp\", path);\n\
                 let f = std::fs::File::create(&tmp);\n\
                 std::fs::write(\"results/direct.json\", \"x\");\n\
             }\n",
        );
        assert_eq!(
            got,
            vec![("LX12".to_string(), 4), ("LX12".to_string(), 5)],
            "transitive taint and direct literal both flagged"
        );
    }

    #[test]
    fn lx12_taint_flows_through_format_captures() {
        let got = findings(
            "fn f() {\n\
                 let path = format!(\"{}/obs.jsonl\", results_dir());\n\
                 let tmp = format!(\"{path}.tmp\");\n\
                 let f = std::fs::File::create(&tmp);\n\
             }\n",
        );
        assert_eq!(
            got,
            vec![("LX12".to_string(), 4)],
            "implicit format capture keeps the taint"
        );
    }

    #[test]
    fn lx12_flags_buffered_and_sink_wrappers() {
        // BufWriter::new / JsonlSink::new hide the same unbuffered
        // write File::create does; one finding per wrapper site (the
        // inner File::create sits inside the scanned argument list).
        let got = findings(
            "fn f() {\n\
                 let path = format!(\"{}/obs.jsonl\", results_dir());\n\
                 let w = BufWriter::new(File::create(&path).unwrap());\n\
                 let s = JsonlSink::new(\"results/obs_fig3.jsonl\");\n\
             }\n",
        );
        assert_eq!(
            got,
            vec![("LX12".to_string(), 3), ("LX12".to_string(), 4)],
            "buffered wrapper and sink constructor both flagged"
        );

        let clean = "fn f(p: &Path) { let w = BufWriter::new(File::create(p).unwrap()); }\n";
        assert!(findings(clean).is_empty(), "untainted wrap is fine");
    }

    #[test]
    fn lx12_ignores_unrelated_writes_and_honors_inline_allow() {
        let clean = "fn f(dir: &Path) { let f = std::fs::File::create(dir.join(\"log.txt\")); }\n";
        assert!(findings(clean).is_empty());

        let allowed = "fn f() {\n\
             // lexlint: allow(LX12): publishes via atomic rename below\n\
             let f = std::fs::File::create(\"results/x.tmp\");\n\
         }\n";
        assert!(findings(allowed).is_empty());
    }
}
