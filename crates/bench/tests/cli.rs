//! End-to-end test of the one `bench` binary: the exit codes CI relies on.
//!
//! 0 — the artifact was written or matches the checked-in file; 1 — drift
//! or a failed gate; 2 — a command line that makes no sense (which must
//! never fall back to a default and overwrite a committed file).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench binary runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn check_passes_on_a_fresh_artifact_and_fails_on_a_tampered_one() {
    let dir = scratch_dir("check");
    assert_eq!(
        bench(&dir, &["geo", "--smoke", "--check"]).status.code(),
        Some(0)
    );

    let file = dir.join("f.json");
    assert_eq!(
        bench(&dir, &["recovery", "--out", "f.json"]).status.code(),
        Some(0)
    );
    let check = bench(&dir, &["recovery", "--check", "--out", "f.json"]);
    assert_eq!(check.status.code(), Some(0), "{check:?}");

    // Flip one byte: a digit of some counter becomes another digit.
    let mut bytes = std::fs::read(&file).expect("artifact written");
    let at = bytes
        .iter()
        .position(|b| b.is_ascii_digit())
        .expect("a digit");
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&file, bytes).expect("tamper");
    let check = bench(&dir, &["recovery", "--check", "--out", "f.json"]);
    assert_eq!(check.status.code(), Some(1), "{check:?}");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("drifted"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// One experiment is checked against its slice of the whole `results.json`
/// (writing it alone is a usage error: see the misuse test).
#[test]
fn one_experiment_checks_its_slice_and_never_writes() {
    let dir = scratch_dir("slice");
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results.json");
    let copy = dir.join("results.json");
    std::fs::copy(checked_in, &copy).expect("copy results.json");
    let check = ["tables", "--exp", "t4", "--check", "--json", "results.json"];
    let out = bench(&dir, &check);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Flip one digit inside t4's record: its data precedes its id.
    let mut bytes = std::fs::read(&copy).expect("copy written");
    let id_at = String::from_utf8_lossy(&bytes)
        .find("\"id\": \"t4\"")
        .expect("t4 record");
    let at = bytes[..id_at]
        .iter()
        .rposition(|b| b.is_ascii_digit())
        .expect("a digit in t4's data");
    bytes[at] = if bytes[at] == b'9' { b'8' } else { bytes[at] + 1 };
    std::fs::write(&copy, bytes).expect("tamper");
    let out = bench(&dir, &check);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drifted"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn misuse_prints_usage_and_exits_2_without_writing() {
    let dir = scratch_dir("misuse");
    for args in [
        &["figures", "--out"][..], // a flag missing its value
        &["tables", "--exp"],
        &["tables", "--json"],
        &["tables", "--exp", "t4", "--json", "x.json"], // one record over the whole file
        &["geo", "--frobnicate"],                       // an unknown flag
        &["frobnicate"],                                // an unknown subcommand
        &["recovery", "--smoke"],                       // no smoke grid to run
        &[],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: bench"), "{args:?}: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(left.is_empty(), "misuse must write nothing, found {left:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
