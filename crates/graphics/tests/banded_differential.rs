//! Differential property test: the damage-driven partial repaint must
//! be pixel-identical to a full display-list render on random op soups.

use proptest::prelude::*;
use riot_geom::{Point, Rect};
use riot_graphics::{
    op_damage_bbox, render_ops_damaged, Color, DisplayList, DrawOp, Framebuffer, RenderCache,
    Viewport,
};

fn arb_ops() -> impl Strategy<Value = Vec<DrawOp>> {
    (1u64..1_000_000, 1usize..60).prop_map(|(seed, n)| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let x = (next() % 2000) as i64 - 1000;
                let y = (next() % 2000) as i64 - 1000;
                let w = (next() % 800) as i64 + 1;
                let h = (next() % 600) as i64 + 1;
                let color = Color::new(next() as u8, next() as u8, next() as u8);
                match next() % 5 {
                    0 => DrawOp::Line {
                        from: Point::new(x, y),
                        to: Point::new(x + w, y - h),
                        color,
                    },
                    1 => DrawOp::Rect {
                        rect: Rect::new(x, y, x + w, y + h),
                        color,
                    },
                    2 => DrawOp::FillRect {
                        rect: Rect::new(x, y, x + w, y + h),
                        color,
                    },
                    3 => DrawOp::Cross {
                        center: Point::new(x, y),
                        arm: (next() % 200) as i64 + 10,
                        color,
                    },
                    _ => DrawOp::Text {
                        at: Point::new(x, y),
                        text: "NET".into(),
                        color,
                    },
                }
            })
            .collect()
    })
}

/// The same world extent [`DisplayList::bounding_box`] assigns one op
/// — what a damage-reporting editor knows about it.
fn op_world_bbox(op: &DrawOp) -> Rect {
    match op {
        DrawOp::Line { from, to, .. } => Rect::from_points(*from, *to),
        DrawOp::Rect { rect, .. } | DrawOp::FillRect { rect, .. } => *rect,
        DrawOp::Cross { center, arm, .. } => Rect::from_center(*center, 2 * arm, 2 * arm),
        DrawOp::Text { at, .. } => Rect::at_point(*at),
    }
}

/// Translates an op by a world delta.
fn op_translated(op: &DrawOp, d: Point) -> DrawOp {
    let mut op = op.clone();
    match &mut op {
        DrawOp::Line { from, to, .. } => {
            *from += d;
            *to += d;
        }
        DrawOp::Rect { rect, .. } | DrawOp::FillRect { rect, .. } => *rect = rect.translated(d),
        DrawOp::Cross { center, .. } => *center += d,
        DrawOp::Text { at, .. } => *at += d,
    }
    op
}

/// A full render of `ops` on a fresh 120×80 framebuffer.
fn full_render(ops: &[DrawOp], vp: &Viewport) -> Framebuffer {
    let mut fb = Framebuffer::new(120, 80);
    ops.iter()
        .cloned()
        .collect::<DisplayList>()
        .render(vp, &mut fb);
    fb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Damage-driven repaint is pixel-identical to a full render after
    /// random edit sequences (moves, recolors, deletions, additions),
    /// with damage reported exactly as the editor would: the changed
    /// op's old and new world bounding boxes.
    #[test]
    fn damaged_repaint_equals_full_render(
        ops in arb_ops(),
        edit_seed in 1u64..1_000_000,
        edits in 1usize..5,
    ) {
        let mut ops = ops;
        let list: DisplayList = ops.iter().cloned().collect();
        let vp = Viewport::fit(list.bounding_box().unwrap(), 120, 80);
        let mut retained = full_render(&ops, &vp);
        // A second retained framebuffer driven through the long-lived
        // cache, synced per edit instead of rebuilt per repaint.
        let mut cache = RenderCache::build(&ops, &vp);
        let mut cached_fb = retained.clone();

        let mut s = edit_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..edits {
            let mut dirty: Vec<Rect> = Vec::new();
            let mut changed: Vec<usize> = Vec::new();
            match next() % 4 {
                0 if !ops.is_empty() => {
                    let i = (next() as usize) % ops.len();
                    dirty.push(op_world_bbox(&ops[i]));
                    let d = Point::new(
                        (next() % 1000) as i64 - 500,
                        (next() % 1000) as i64 - 500,
                    );
                    ops[i] = op_translated(&ops[i], d);
                    dirty.push(op_world_bbox(&ops[i]));
                    changed.push(i);
                }
                1 if !ops.is_empty() => {
                    let i = (next() as usize) % ops.len();
                    ops[i] = ops[i].with_color(Color::new(next() as u8, 200, next() as u8));
                    dirty.push(op_world_bbox(&ops[i]));
                    changed.push(i);
                }
                2 if ops.len() > 1 => {
                    // A removed op's fixed-pixel overhang (text, min-arm
                    // crosses) is invisible to the stateless repaint, so
                    // removal damage covers its full pixel footprint.
                    let i = (next() as usize) % ops.len();
                    dirty.push(op_damage_bbox(&ops[i], &vp));
                    ops.remove(i);
                    // Length changed: sync falls back to a rebuild.
                }
                _ => {
                    let x = (next() % 2000) as i64 - 1000;
                    let y = (next() % 2000) as i64 - 1000;
                    let op = DrawOp::FillRect {
                        rect: Rect::new(x, y, x + 300, y + 200),
                        color: Color::new(10, next() as u8, 240),
                    };
                    dirty.push(op_world_bbox(&op));
                    ops.push(op);
                }
            }
            render_ops_damaged(&ops, &vp, &mut retained, &dirty);
            cache.sync(&ops, &vp, &changed);
            cache.render(&ops, &mut cached_fb, &dirty);
            let full = full_render(&ops, &vp);
            prop_assert_eq!(&retained, &full, "one-shot");
            prop_assert_eq!(&cached_fb, &full, "retained cache");
        }
    }
}
