//! `riot-bench profile` end to end through the binary: the canonical
//! session profiles every primitive, and a journal with no commands
//! fails without leaving a file behind.

use riot_bench::harness::Report;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("riot-bench-profile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn profile(journal: &Path, dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_riot-bench"))
        .arg("profile")
        .arg(journal)
        .arg("--out")
        .arg(dir.join("profile.json"))
        .arg("--chrome")
        .arg(dir.join("trace.json"))
        .output()
        .unwrap()
}

#[test]
fn canonical_session_profiles_abut_route_and_stretch() {
    let dir = scratch("canonical");
    let journal =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/profile_session.replay");
    let out = profile(&journal, &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        Report::parse(&std::fs::read_to_string(dir.join("profile.json")).unwrap()).unwrap();
    for kind in ["abut", "route", "stretch"] {
        assert!(report.get(&format!("{kind}.count")).unwrap() > 0, "{kind}");
    }
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    assert!(trace.contains("\"name\":\"cmd.stretch\""));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn journal_without_commands_fails_and_writes_nothing() {
    let dir = scratch("empty");
    let journal = dir.join("empty.replay");
    std::fs::write(&journal, "riot replay v1\nedit PROFILE\n").unwrap();
    let out = profile(&journal, &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no command spans"));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        left,
        ["empty.replay"],
        "a failed profile must write nothing"
    );
    let _ = std::fs::remove_dir_all(dir);
}
