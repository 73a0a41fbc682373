//! Workspace walking and rule dispatch: which rules run on which files.
//!
//! The scan covers the root crate (`src/`) and every crate under
//! `crates/`. Vendored stand-ins (`vendor/`), integration tests,
//! benches, and examples are out of scope — the ratchet protects the
//! code that serves traffic, not the code that exercises it.
//!
//! Scanning is two-phase. Phase one loads and lexes every in-scope file
//! and runs the per-file lexical rules. Phase two runs the
//! interprocedural analysis ([`crate::summary`]) over the serve-path
//! crates as a whole — lock-order cycles and blocking-under-lock need
//! the cross-file call graph — and merges its findings back into the
//! per-file reports, honoring `// lint: allow(RULE)` suppressions.

use crate::baseline::Counts;
use crate::lexer::{lex, Token};
use crate::rules::{self, Finding};
use std::path::{Path, PathBuf};

/// Crates on the 24×7 serve path: panic-ratchet, lock-hold, and the
/// interprocedural concurrency rules apply to their non-test code.
/// `obs` is additionally exempt from the `instant-in-loop` timing rule
/// — it is the timing layer.
pub const SERVE_PATH_CRATES: &[&str] =
    &["server", "query", "core", "store", "build", "text", "obs"];

/// Crates that are binaries/harnesses: exempt from the library-hygiene
/// rules (stdio printing, `Box<dyn Error>` signatures).
pub const BIN_CRATES: &[&str] = &["cli", "bench", "lint"];

/// Crates whose non-test code must route every filesystem call through
/// the `Vfs` abstraction (`crates/store/src/vfs.rs`), so the fault-sweep
/// harness can fail each syscall site: direct `std::fs` / `File::` /
/// `OpenOptions` use is ratcheted to zero outside the VFS module itself.
pub const VFS_ONLY_CRATES: &[&str] = &["store", "build"];

/// One loaded, lexed source file — the unit both scan phases work on.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (the baseline key).
    pub rel: String,
    /// Name of the crate the file belongs to (`hopi` for the root).
    pub crate_name: String,
    /// Bare file name (`vfs.rs`).
    pub file_name: String,
    /// `lib.rs`/`main.rs` directly under `src/`.
    pub is_crate_root: bool,
    /// `main.rs` or anything under `src/bin/`.
    pub is_bin_root: bool,
    /// Raw source text.
    pub text: String,
    /// Lexed token stream.
    pub tokens: Vec<Token>,
    /// Per-token test mask (`#[cfg(test)]` / `#[test]` items).
    pub mask: Vec<bool>,
}

/// All findings of one scanned file.
#[derive(Clone, Debug)]
pub struct FileFindings {
    /// Workspace-relative path with `/` separators (the baseline key).
    pub path: String,
    /// Findings in source order.
    pub findings: Vec<Finding>,
}

/// Loads every in-scope `.rs` file under `root`, lexed and masked, in
/// deterministic (crate, path) order.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        load_crate(root, "hopi", &root_src, &mut out)?;
    }
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "no crates/ directory under {} — wrong --root?",
            root.display()
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = dir.join("src");
        if src.is_dir() {
            load_crate(root, &name, &src, &mut out)?;
        }
    }
    Ok(out)
}

/// The lines of `file` that hold a token outside test items
/// ([`rules::test_mask`]): its non-test line count. Comment and blank
/// lines hold no token, so deleting comments does not lower it.
pub fn code_lines(file: &SourceFile) -> usize {
    let mut lines: Vec<u32> = (file.tokens.iter().zip(&file.mask))
        .filter_map(|(t, &test)| (!test).then_some(t.line))
        .collect();
    lines.dedup();
    lines.len()
}

/// Indices of the serve-path files in a loaded workspace — the scope of
/// the interprocedural analysis.
pub fn serve_indices(files: &[SourceFile]) -> Vec<usize> {
    files
        .iter()
        .enumerate()
        .filter(|(_, f)| SERVE_PATH_CRATES.contains(&f.crate_name.as_str()))
        .map(|(i, _)| i)
        .collect()
}

/// Scans the workspace rooted at `root` and returns per-file findings
/// for every in-scope `.rs` file (files with no findings included, so
/// callers can report coverage).
pub fn scan_workspace(root: &Path) -> Result<Vec<FileFindings>, String> {
    let files = load_workspace(root)?;
    let mut per_file: Vec<Vec<Finding>> = files.iter().map(scan_file).collect();
    for (idx, finding) in crate::summary::interproc_findings(&files, &serve_indices(&files)) {
        if allowed(&files[idx], &finding) {
            continue;
        }
        per_file[idx].push(finding);
    }
    Ok(files
        .iter()
        .zip(per_file)
        .map(|(f, mut findings)| {
            findings.sort_by_key(|f| (f.line, f.rule));
            FileFindings {
                path: f.rel.clone(),
                findings,
            }
        })
        .collect())
}

/// Is this finding suppressed by a `// lint: allow(RULE)` comment (or
/// `allow(RULE-A, RULE-B)` list) on its line or the line above? Only
/// the interprocedural rules support allow-comments — the lexical
/// rules ratchet through the baseline.
fn allowed(file: &SourceFile, finding: &Finding) -> bool {
    let mut lines = file
        .text
        .lines()
        .skip((finding.line as usize).saturating_sub(2));
    let above = lines.next().unwrap_or("");
    let at = if finding.line > 1 {
        lines.next().unwrap_or("")
    } else {
        above
    };
    line_allows(above, finding.rule) || line_allows(at, finding.rule)
}

fn line_allows(line: &str, rule: &str) -> bool {
    let Some(pos) = line.find("lint: allow(") else {
        return false;
    };
    let rest = &line[pos + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[..close].split(',').any(|r| r.trim() == rule)
}

/// Aggregates findings into baseline counts (files with no findings are
/// omitted).
pub fn counts(reports: &[FileFindings]) -> Counts {
    let mut c = Counts::new();
    for report in reports {
        for f in &report.findings {
            *c.entry(report.path.clone())
                .or_default()
                .entry(f.rule.to_string())
                .or_insert(0) += 1;
        }
    }
    c
}

/// The per-file lexical rules for one loaded file.
fn scan_file(file: &SourceFile) -> Vec<Finding> {
    let serve = SERVE_PATH_CRATES.contains(&file.crate_name.as_str());
    let bin_crate = BIN_CRATES.contains(&file.crate_name.as_str());
    let tokens = &file.tokens;
    let mask = &file.mask;
    let lines: Vec<&str> = file.text.lines().collect();

    let mut findings = Vec::new();
    if serve {
        findings.extend(rules::panic_findings(tokens, mask, &lines));
        findings.extend(rules::lock_findings(tokens, mask, &lines));
        if file.crate_name != "obs" {
            findings.extend(rules::instant_in_loop_findings(tokens, mask, &lines));
        }
    }
    if VFS_ONLY_CRATES.contains(&file.crate_name.as_str()) && file.file_name != "vfs.rs" {
        findings.extend(rules::direct_io_findings(tokens, mask, &lines));
    }
    if file.is_crate_root {
        findings.extend(rules::forbid_unsafe_finding(tokens));
    }
    if !bin_crate && !file.is_bin_root {
        findings.extend(rules::print_findings(tokens, mask, &lines));
        findings.extend(rules::box_dyn_error_findings(tokens, mask, &lines));
    }
    findings
}

fn load_crate(
    root: &Path,
    crate_name: &str,
    src: &Path,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs_files(src, &mut files)?;
    files.sort();
    for file in files {
        let rel = relative_path(root, &file);
        let file_name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let is_crate_root =
            file.parent() == Some(src) && matches!(file_name.as_str(), "lib.rs" | "main.rs");
        let in_bin_dir = file
            .strip_prefix(src)
            .ok()
            .is_some_and(|p| p.starts_with("bin"));
        let is_bin_root = in_bin_dir || file_name == "main.rs";
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let tokens = lex(&text);
        let mask = rules::test_mask(&tokens);
        out.push(SourceFile {
            rel,
            crate_name: crate_name.to_string(),
            file_name,
            is_crate_root,
            is_bin_root,
            text,
            tokens,
            mask,
        });
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across
/// platforms, so baselines are portable).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
