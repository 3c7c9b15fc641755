//! The committed `BENCH_*.json` baselines. Each parses with
//! `riot_trace::json::Value::parse`, says `riot-bench/2`, passes the
//! checks its suite runs before writing, and holds the gate its numbers
//! were committed to support, at the size it was committed at.

use riot_bench::fig9;
use riot_bench::harness::{check, Report};

fn baseline(name: &str) -> Report {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = Report::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    check(&report).unwrap_or_else(|e| panic!("{name}: {e}"));
    report
}

#[test]
fn spatial_drc_beats_naive_at_10k_shapes() {
    let r = baseline("BENCH_spatial.json");
    assert_eq!(r.suite, "spatial");
    assert_eq!(r.param("shapes").unwrap(), 10_000);
    assert!(r.get("drc.check_ns").unwrap() < r.get("drc.naive_ns").unwrap());
}

#[test]
fn incremental_is_20x_full_at_1m_shapes() {
    let r = baseline("BENCH_incremental.json");
    assert_eq!(r.suite, "incremental");
    assert_eq!(r.get("flat_shapes").unwrap(), 1_000_000);
    let full = r.get("full.total_ns").unwrap();
    let incr = r.get("incremental.total_ns").unwrap();
    assert!(
        full >= 20 * incr,
        "full {full} ns is under 20× incremental {incr} ns"
    );
}

#[test]
fn route_grid_solve_is_timed_at_256_nets_and_256_obstacles() {
    let r = baseline("BENCH_route.json");
    assert_eq!(r.suite, "route");
    assert_eq!(r.param("nets").unwrap(), 256);
    assert_eq!(r.param("obstacles").unwrap(), 256);
}

#[test]
fn serve_amortizes_fsyncs_and_holds_1024_connections() {
    let r = baseline("BENCH_serve.json");
    assert_eq!(r.suite, "serve");
    let fsyncs = r.get("fsyncs_total").unwrap();
    let commands = r.get("commands_total").unwrap();
    assert!(
        fsyncs * 4 <= commands,
        "{fsyncs} fsyncs over {commands} commands is above 0.25 per command"
    );
    let top = r.axis("conns", "elapsed_ns").last().map_or(0, |p| p.0);
    assert!(top >= 1024, "the connection axis tops out at {top}");
}

#[test]
fn fig9_shape_claims_hold_from_64_to_512_bits() {
    let r = baseline("BENCH_fig9.json");
    assert_eq!(r.suite, "fig9");
    for style in fig9::STYLES {
        let sizes: Vec<u64> = r
            .axis(style.name(), "live_ns")
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(sizes, fig9::BITS.map(|b| b as u64), "{}", style.name());
    }
}
