//! The flush pass amortizes durability over a drained batch: one write
//! and one fsync per dirty WAL, however many command runs the batch
//! staged, and no reply before it. This file holds a single test so
//! the process-global metrics registry belongs to it alone.

use riot_serve::{Bind, Client, Reply, ReplyBody, RequestBody, ServeConfig, Server};
use riot_trace::{fresh_trace_id, TraceContext};
use std::time::{Duration, Instant};

const SESSIONS: usize = 8;
const PER_SESSION: usize = 8;
const STALL_MS: u64 = 1000;

/// The pool-wide inbox depth, read through the `stats` verb. The event
/// loop answers it inline, once every frame sent before it on this
/// connection has been dispatched.
fn queued(c: &mut Client) -> usize {
    let line = c.stats().unwrap();
    let mut words = line.split_whitespace();
    words.find(|w| *w == "queued");
    words
        .next()
        .and_then(|n| n.parse().ok())
        .expect("stats line has `queued N`")
}

#[test]
fn one_flush_pass_covers_a_drained_batch() {
    riot_trace::enable(true);
    let root = std::env::temp_dir().join(format!("riot-serve-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    assert_eq!(
        cfg.batch_max,
        SESSIONS * PER_SESSION,
        "the queued commands must fill exactly one batch"
    );
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let names: Vec<String> = (0..SESSIONS).map(|s| format!("flush-{s}")).collect();
    for name in &names {
        assert_eq!(c.open(name, "TOP").unwrap(), "created");
    }

    let reg = riot_trace::registry();
    let fsyncs = reg.counter("serve.wal.fsyncs");
    let flushes = reg.counter("serve.group.flushes");
    let (fsyncs_before, flushes_before) = (fsyncs.get(), flushes.get());

    // Hold the only worker. The stall must be a batch of its own, so
    // nothing is queued behind it until the worker has drained it —
    // which its queue-wait span shows.
    let ctx = TraceContext::new(fresh_trace_id(), 1);
    let stall = c
        .send_traced(
            RequestBody::Stall {
                session: names[0].clone(),
                ms: STALL_MS,
            },
            ctx,
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_millis(STALL_MS);
    while !riot_trace::recorder()
        .snapshot()
        .iter()
        .any(|s| s.trace == ctx.trace_id && s.name == "serve.queue.wait")
    {
        assert!(
            Instant::now() < deadline,
            "the worker never drained the stall"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = queued(&mut c);

    // Interleave the sessions, so the batch stages one run per command:
    // 64 runs, 8 dirty WALs.
    let mut ids = Vec::with_capacity(SESSIONS * PER_SESSION);
    for k in 0..PER_SESSION {
        for name in &names {
            ids.push(
                c.send(RequestBody::Cmd {
                    session: name.clone(),
                    line: format!("create nand2 G{k}"),
                })
                .unwrap(),
            );
        }
    }
    // Nothing left the inbox while the commands went in, so the worker
    // drains all 64 as one batch.
    assert_eq!(
        queued(&mut c),
        before + SESSIONS * PER_SESSION,
        "every command must queue behind the stall"
    );

    let Reply { id, body } = c.recv().unwrap();
    assert_eq!(id, stall);
    assert_eq!(body, ReplyBody::Ok(format!("stalled {STALL_MS}ms")));
    for want in ids {
        let Reply { id, body } = c.recv().unwrap();
        assert_eq!(id, want, "replies must come back in send order");
        assert!(matches!(body, ReplyBody::Ok(_)), "command {id}: {body:?}");
    }
    assert_eq!(
        fsyncs.get() - fsyncs_before,
        SESSIONS as u64,
        "one fsync per dirty WAL"
    );
    assert_eq!(
        flushes.get() - flushes_before,
        1,
        "one flush pass per drained batch"
    );

    c.shutdown_server().unwrap();
    h.wait();
    riot_trace::enable(false);
    let _ = std::fs::remove_dir_all(root);
}
