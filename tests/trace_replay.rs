//! Trace/replay integration: replaying a journal with `riot-trace`
//! enabled produces at least one recorded span per journaled command
//! kind — the invariant the `riot-bench profile` suite depends on.

use riot::core::{replay, AbutOptions, Editor, Journal, Library, RouteOptions, StretchOptions};
use riot::geom::{Point, LAMBDA};
use std::collections::BTreeSet;

/// A two-output driver leaf (same shape as the `riot-bench profile` fixture).
const DRIVER: &str = "\
sticks driver
bbox 0 0 10 20
pin X right NP 10 6 2
pin Y right NP 10 14 2
wire NP 2 0 6 10 6
wire NP 2 0 14 10 14
end
";

/// A two-input receiver leaf.
const RECEIVER: &str = "\
sticks receiver
bbox 0 0 12 24
pin A left NP 0 6 2
pin B left NP 0 12 2
wire NP 2 0 6 8 6
wire NP 2 0 12 8 12
end
";

fn standard_library() -> Library {
    let mut lib = Library::new();
    lib.add_sticks_cell(riot::cells::shift_register()).unwrap();
    lib.load_sticks(DRIVER).unwrap();
    lib.load_sticks(RECEIVER).unwrap();
    lib
}

/// Records a session covering every replayable command kind that the
/// profiler reports on: create, translate, connect, abut, route,
/// stretch, undo, redo, finish.
fn record_session() -> Journal {
    let mut lib = standard_library();
    let sr = lib.find("shiftcell").unwrap();
    let drv = lib.find("driver").unwrap();
    let rcv = lib.find("receiver").unwrap();

    let mut ed = Editor::open(&mut lib, "TRACED").unwrap();

    // Abutment chain.
    let a = ed.create_instance(sr).unwrap();
    let b = ed.create_instance(sr).unwrap();
    ed.translate_instance(b, Point::new(30 * LAMBDA, 0))
        .unwrap();
    ed.connect(b, "SI", a, "SO").unwrap();
    ed.abut(AbutOptions::default()).unwrap();

    // River route.
    let d1 = ed.create_instance(drv).unwrap();
    ed.translate_instance(d1, Point::new(0, 100 * LAMBDA))
        .unwrap();
    let r1 = ed.create_instance(rcv).unwrap();
    ed.translate_instance(r1, Point::new(40 * LAMBDA, 107 * LAMBDA))
        .unwrap();
    ed.connect(r1, "A", d1, "X").unwrap();
    ed.route(RouteOptions::default()).unwrap();

    // Stretch.
    let d2 = ed.create_instance(drv).unwrap();
    ed.translate_instance(d2, Point::new(0, 200 * LAMBDA))
        .unwrap();
    let r2 = ed.create_instance(rcv).unwrap();
    ed.translate_instance(r2, Point::new(40 * LAMBDA, 200 * LAMBDA))
        .unwrap();
    ed.connect(r2, "A", d2, "X").unwrap();
    ed.connect(r2, "B", d2, "Y").unwrap();
    ed.stretch(StretchOptions::default()).unwrap();

    // History machinery.
    ed.translate_instance(d2, Point::new(0, 2 * LAMBDA))
        .unwrap();
    ed.undo().unwrap();
    ed.redo().unwrap();

    ed.finish().unwrap();
    ed.journal().clone()
}

/// NOTE: single test function — the trace registry is process-global,
/// and this file being its own integration-test binary guarantees no
/// other test mutates it concurrently.
#[test]
fn replay_emits_a_span_per_journaled_command_kind() {
    let journal = record_session();

    // Every command kind that appears in the journal after the `edit`
    // head (the head names the session; it is not applied as a
    // command and therefore carries no span).
    let kinds: BTreeSet<&'static str> = journal
        .commands()
        .iter()
        .map(|c| c.kind_name())
        .filter(|k| *k != "edit")
        .collect();
    for expected in [
        "create",
        "translate",
        "connect",
        "abut",
        "route",
        "stretch",
        "undo",
        "redo",
        "finish",
    ] {
        assert!(kinds.contains(expected), "journal misses kind {expected}");
    }

    riot::trace::reset();
    riot::trace::enable(true);
    let mut lib = standard_library();
    let warnings = replay(&journal, &mut lib).expect("replay");
    riot::trace::enable(false);
    assert!(warnings.is_empty(), "replay warnings: {warnings:?}");

    // Per-kind latency histograms: one `cmd.<kind>` entry with a
    // nonzero count and sane percentiles for every journaled kind.
    let hists: std::collections::HashMap<String, _> =
        riot::trace::registry().histograms().into_iter().collect();
    for kind in &kinds {
        let name = format!("cmd.{kind}");
        let h = hists
            .get(&name)
            .unwrap_or_else(|| panic!("no histogram {name}; have {:?}", hists.keys()));
        assert!(h.count() >= 1, "{name} recorded no samples");
        let p50 = h.p50().expect("p50 defined for nonzero count");
        let p99 = h.p99().expect("p99 defined for nonzero count");
        assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");
    }

    // The recorder also holds raw span records for each kind.
    let span_names: BTreeSet<String> = riot::trace::recorder()
        .snapshot()
        .into_iter()
        .map(|r| r.name.to_owned())
        .collect();
    for kind in &kinds {
        let name = format!("cmd.{kind}");
        assert!(span_names.contains(&name), "no span record named {name}");
    }

    // The geometry pipeline (flatten → DRC → device render) runs on its
    // caller's thread, so every span it emits lands in the caller's
    // trace: the memoized flattener, the indexed checker with one
    // `drc.layer` span per checked layer (metal and poly here) and the
    // index each of those builds, and the device render.
    riot::trace::enable(true);
    let root = riot::trace::span("test.pipeline");
    let root_id = root.id();
    let file = riot::cif::parse(
        "DS 1;L NM;B 400 250 200 125;L NP;B 200 200 600 100;DF;C 1 T 0 0;C 1 T 450 0;E",
    )
    .expect("pipeline fixture parses");
    let shapes = riot::cif::flatten(&file).expect("flatten");
    let _violations = riot::drc::check(&shapes, &riot::drc::RuleSet::nmos());
    let list: riot::graphics::DisplayList = shapes
        .iter()
        .map(|s| riot::graphics::DrawOp::FillRect {
            rect: s.geometry.bounding_box(),
            color: riot::graphics::Color::of_layer(s.layer),
        })
        .collect();
    let fb = riot::graphics::device::gigi().render(&list);
    drop(root);
    riot::trace::enable(false);
    assert!(fb.lit_pixels() > 0, "pipeline fixture drew nothing");

    let records = riot::trace::recorder().snapshot();
    let root = records
        .iter()
        .find(|r| r.id == root_id)
        .expect("the root span is recorded");
    let in_trace: Vec<&riot::trace::SpanRecord> =
        records.iter().filter(|r| r.trace == root.trace).collect();
    let pipeline_spans: BTreeSet<&str> = in_trace.iter().map(|r| r.name).collect();
    for name in ["cif.flatten.memo", "drc.check", "gfx.render"] {
        assert!(
            pipeline_spans.contains(name),
            "no span named {name} in the caller's trace; have {pipeline_spans:?}"
        );
    }
    let layers: Vec<u64> = in_trace
        .iter()
        .filter(|r| r.name == "drc.layer")
        .map(|r| r.id)
        .collect();
    assert_eq!(
        layers.len(),
        2,
        "one drc.layer span per checked layer in the caller's trace; have {in_trace:?}"
    );
    for layer in &layers {
        assert!(
            in_trace
                .iter()
                .any(|r| r.name == "geom.index.build" && r.parent == *layer),
            "drc.layer span {layer} has no geom.index.build child in the caller's trace"
        );
    }
    for r in &in_trace {
        assert_eq!(r.thread, root.thread, "{} left the caller's thread", r.name);
    }

    // Damage-path metrics: every recorded damage rect marks
    // `damage.rects`, and an incremental DRC patch records its
    // refreshed-pair count in the `drc.incremental.patched` histogram.
    riot::trace::enable(true);
    {
        let mut lib = standard_library();
        let sr = lib.find("shiftcell").unwrap();
        let mut ed = Editor::open(&mut lib, "DAMAGE").unwrap();
        let a = ed.create_instance(sr).unwrap();
        ed.translate_instance(a, Point::new(2 * LAMBDA, 0)).unwrap();
        ed.translate_instance(a, Point::new(2 * LAMBDA, 0)).unwrap();
        assert!(!ed.take_damage().is_clean(), "edits recorded damage");
    }
    let before = riot::cif::flatten(
        &riot::cif::parse("DS 1;L NM;B 400 250 200 125;B 400 250 200 1200;DF;C 1 T 0 0;E")
            .expect("fixture parses"),
    )
    .expect("flatten before");
    let after = riot::cif::flatten(
        &riot::cif::parse("DS 1;L NM;B 400 250 700 125;B 400 250 200 1200;DF;C 1 T 0 0;E")
            .expect("fixture parses"),
    )
    .expect("flatten after");
    let rules = riot::drc::RuleSet::nmos();
    let mut state = riot::drc::DrcState::build(&before, &rules);
    let dirty = [
        before[0].geometry.bounding_box(),
        after[0].geometry.bounding_box(),
    ];
    riot::drc::check_incremental(&mut state, &dirty, &after);
    riot::trace::enable(false);

    let counters: std::collections::HashMap<String, u64> =
        riot::trace::registry().counters().into_iter().collect();
    assert!(
        counters.get("damage.rects").copied().unwrap_or(0) > 0,
        "counter damage.rects never incremented; have {:?}",
        counters.keys()
    );
    let hists: std::collections::HashMap<String, _> =
        riot::trace::registry().histograms().into_iter().collect();
    let patched = hists.get("drc.incremental.patched").unwrap_or_else(|| {
        panic!(
            "no drc.incremental.patched histogram; have {:?}",
            hists.keys()
        )
    });
    assert!(
        patched.count() >= 1,
        "incremental DRC recorded no patch sizes"
    );
}
