//! Golden-file tests for the generated documentation.
//!
//! Two properties are pinned here:
//!
//! 1. **Determinism** — rendering the same fixed-seed scenario twice yields
//!    byte-identical Markdown. Every protocol family rides on this (the
//!    simulator is a pure function of config + seed, and the renderer adds
//!    no timestamps or iteration-order nondeterminism).
//! 2. **Freshness** — the committed `docs/` tree matches what the current
//!    code generates. If a protocol or the renderer changes, rerun
//!    `cargo run --release -p bench -- figures` and commit the result.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use bench::figures::{all_pages, index_page, observability_page};

fn docs_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs")
}

#[test]
fn regeneration_is_deterministic() {
    let first: BTreeMap<&str, String> =
        all_pages().into_iter().map(|p| (p.slug, p.body)).collect();
    let second: BTreeMap<&str, String> =
        all_pages().into_iter().map(|p| (p.slug, p.body)).collect();
    assert_eq!(first.len(), second.len());
    for (slug, body) in &first {
        assert_eq!(
            Some(body),
            second.get(slug),
            "{slug}: two runs with the same seed diverged"
        );
    }
}

#[test]
fn committed_docs_match_generated() {
    let pages = all_pages();
    for p in &pages {
        let path = docs_root().join("protocols").join(format!("{}.md", p.slug));
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} — regenerate docs/ with `bench figures`", p.slug));
        assert_eq!(
            committed, p.body,
            "{}: docs/protocols/{}.md is stale — rerun `cargo run --release -p bench -- figures`",
            p.slug, p.slug
        );
    }
    let committed_index = fs::read_to_string(docs_root().join("README.md"))
        .expect("docs/README.md missing — regenerate with `bench figures`");
    assert_eq!(
        committed_index,
        index_page(&pages),
        "docs/README.md is stale — rerun `cargo run --release -p bench -- figures`"
    );
    let committed_obs = fs::read_to_string(docs_root().join("observability.md"))
        .expect("docs/observability.md missing — regenerate with `bench figures`");
    assert_eq!(
        committed_obs,
        observability_page(),
        "docs/observability.md is stale — rerun `cargo run --release -p bench -- figures`"
    );
}

#[test]
fn every_page_shows_cnc_decisions() {
    // Each scenario must actually decide something: at least one close span
    // and a completed-instance latency sample prove the protocol ran to a
    // decision, not just to the horizon.
    for p in all_pages() {
        assert!(
            p.body.contains("close"),
            "{}: no span_close reached the trace",
            p.slug
        );
        assert!(
            !p.body.contains("| Instances completed | 0 |"),
            "{}: no instance completed",
            p.slug
        );
    }
}
