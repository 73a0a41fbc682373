//! `lines [ROOT]` — non-test lines of code per crate of the workspace at
//! `ROOT` (default `.`), the count ROADMAP.md and CHANGES.md record
//! deletions in, as a Markdown table.
//!
//! A line counts when it holds a token of `crates/*/src` or `src/` outside
//! `#[cfg(test)]` and `#[test]` items, by the lexer and test mask the lint
//! scan uses ([`hopi_lint::scan::code_lines`]). Comment and blank lines do
//! not count. Exit codes: 0 printed, 2 I/O error.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".into()));
    let files = hopi_lint::scan::load_workspace(&root).unwrap_or_else(|e| {
        eprintln!("lines: {e}");
        std::process::exit(2)
    });
    let mut per_crate: BTreeMap<&str, usize> = BTreeMap::new();
    for file in &files {
        *per_crate.entry(&file.crate_name).or_insert(0) += hopi_lint::scan::code_lines(file);
    }
    println!("| crate | lines |\n|---|---|");
    for (name, lines) in &per_crate {
        println!("| {name} | {lines} |");
    }
    println!("| workspace | {} |", per_crate.values().sum::<usize>());
}
