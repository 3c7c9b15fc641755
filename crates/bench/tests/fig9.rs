//! The `fig9` suite at toy sizes: its measuring function passes the
//! suite's checks at 4, 8 and 16 bits, and those checks refuse a report
//! that breaks the paper's shape claim, drops a series, overruns the
//! live pass, or holds a routed session that grows faster than the
//! block.

use riot_bench::fig9::{check, sweep, STYLES};
use riot_bench::harness::Report;
use std::sync::OnceLock;

/// One sweep at 4, 8 and 16 bits, shared by the tests.
fn toy() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| sweep(&[4, 8, 16]).expect("the toy sweep runs"))
}

/// What `check` says about the toy report after `edit`.
fn refusal(edit: impl FnOnce(&mut Report)) -> String {
    let mut r = toy().clone();
    edit(&mut r);
    check(&r).expect_err("check must refuse the edited report")
}

#[test]
fn toy_sizes_pass_the_suite_checks() {
    let r = toy();
    check(r).unwrap();
    for style in STYLES {
        let sizes: Vec<u64> = r
            .axis(style.name(), "live_ns")
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(sizes, [4, 8, 16], "{}", style.name());
    }
    assert!(r.get("routed.16.route.count").unwrap() > 0);
    assert!(r.get("stretched.16.stretch.count").unwrap() > 0);
}

#[test]
fn check_refuses_broken_reports() {
    let taller = refusal(|r| {
        let routed = r.get("routed.8.height").unwrap();
        r.metrics.insert("stretched.8.height".into(), routed);
    });
    assert!(taller.contains("is not below routed"), "{taller}");

    let untimed = refusal(|r| {
        r.metrics.remove("routed.8.abut.total_ns");
    });
    assert!(untimed.contains("routed.8.abut.total_ns"), "{untimed}");

    let dirty = refusal(|r| {
        r.metrics.insert("stretched.8.violations".into(), 1);
    });
    assert!(dirty.contains("DRC violations"), "{dirty}");

    let over = refusal(|r| {
        r.metrics.insert("routed.8.live_ns".into(), 1);
    });
    assert!(over.contains("more than the 1 ns pass"), "{over}");

    let quadratic = refusal(|r| {
        let at8 = r.get("routed.8.session_bytes").unwrap();
        r.metrics
            .insert("routed.16.session_bytes".into(), at8 * 23 / 10);
    });
    assert!(quadratic.contains("more than 2.2×"), "{quadratic}");
}
