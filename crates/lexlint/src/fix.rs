//! Applying machine-applicable suggestions (`--fix`).
//!
//! Only findings that carry a [`Suggestion`](crate::rules::Suggestion)
//! are touched — a suggestion is a literal find/replace confined to the
//! finding's own line, attached only where the rewrite is mechanically
//! safe (e.g. LX03's `HashMap` → `BTreeMap`, LX07's fully-qualified
//! `Instant::now()` → `Stopwatch::start()`). Everything else stays a
//! human decision. Files are rewritten through
//! [`lexcache_runner::atomic_write`] so an interrupted fix pass never
//! leaves a half-written source file.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of a fix pass.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FixOutcome {
    /// Number of suggestions actually applied.
    pub applied: usize,
    /// Findings that carried a suggestion whose `find` text was no
    /// longer present on the line (source drifted since analysis).
    pub stale: usize,
}

/// Applies every suggestion in `findings` to the files under `root`.
/// Edits are grouped per file and applied bottom-up within it (line
/// numbers stay valid because suggestions never add or remove lines,
/// but bottom-up keeps the order canonical when lines repeat).
pub fn apply(root: &Path, findings: &[Finding]) -> Result<FixOutcome, String> {
    let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in findings.iter().filter(|f| f.suggestion.is_some()) {
        by_file.entry(f.file.as_str()).or_default().push(f);
    }
    let mut outcome = FixOutcome::default();
    for (file, mut edits) in by_file {
        let abs = root.join(file);
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        // Preserve the original line terminators by splitting inclusively.
        let mut lines: Vec<String> = split_keep_newlines(&src);
        edits.sort_by_key(|e| std::cmp::Reverse(e.line));
        for f in edits {
            let Some(s) = &f.suggestion else { continue };
            match lines.get_mut(f.line.saturating_sub(1)) {
                Some(line) if line.contains(&s.find) => {
                    *line = line.replacen(&s.find, &s.replace, 1);
                    outcome.applied += 1;
                }
                _ => outcome.stale += 1,
            }
        }
        let fixed: String = lines.concat();
        if fixed != src {
            lexcache_runner::atomic_write(&abs, &fixed)
                .map_err(|e| format!("writing {}: {e}", abs.display()))?;
        }
    }
    Ok(outcome)
}

/// Number of findings that carry a machine-applicable suggestion —
/// what `--fix` would change and what `--fix-check` fails on.
pub fn applicable(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.suggestion.is_some()).count()
}

fn split_keep_newlines(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while !rest.is_empty() {
        match rest.find('\n') {
            Some(i) => {
                out.push(rest[..=i].to_string());
                rest = &rest[i + 1..];
            }
            None => {
                out.push(rest.to_string());
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Suggestion;

    fn finding(file: &str, line: usize, find: &str, replace: &str) -> Finding {
        Finding {
            rule: "LX03",
            file: file.to_string(),
            line,
            snippet: String::new(),
            hint: "",
            suggestion: Some(Suggestion {
                find: find.to_string(),
                replace: replace.to_string(),
            }),
        }
    }

    #[test]
    fn applies_suggestions_in_place_and_counts_stale() {
        let root = std::env::temp_dir().join(format!("lexlint-fix-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("mkdir");
        let rel = "lib.rs";
        std::fs::write(
            root.join(rel),
            "use std::collections::HashMap;\nlet m = HashMap::new();\n",
        )
        .expect("seed");
        let findings = vec![
            finding(rel, 1, "HashMap", "BTreeMap"),
            finding(rel, 2, "HashMap", "BTreeMap"),
            finding(rel, 2, "HashSet", "BTreeSet"), // not on the line → stale
        ];
        let outcome = apply(&root, &findings).expect("apply");
        assert_eq!(
            outcome,
            FixOutcome {
                applied: 2,
                stale: 1
            }
        );
        let fixed = std::fs::read_to_string(root.join(rel)).expect("read");
        assert_eq!(
            fixed,
            "use std::collections::BTreeMap;\nlet m = BTreeMap::new();\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn findings_without_suggestions_touch_nothing() {
        let root = std::env::temp_dir().join(format!("lexlint-fix2-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join("a.rs"), "fn main() {}\n").expect("seed");
        let mut f = finding("a.rs", 1, "x", "y");
        f.suggestion = None;
        let outcome = apply(&root, &[f]).expect("apply");
        assert_eq!(outcome, FixOutcome::default());
        assert_eq!(applicable(&[]), 0);
        let back = std::fs::read_to_string(root.join("a.rs")).expect("read");
        assert_eq!(back, "fn main() {}\n");
        let _ = std::fs::remove_dir_all(&root);
    }
}
