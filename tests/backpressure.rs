//! Backpressure regression suite: the async collection plane's bounded
//! per-connection queues must shed visibly, lose nothing, and leave no
//! trace in the data output.
//!
//! Contract under test (ARCHITECTURE.md §8, PROTOCOL.md "Concurrent
//! connections"): when a client floods uploads faster than its worker
//! drains them, the server sheds the excess with an explicit `Error{429}`
//! reply instead of buffering unboundedly. The shed is an invitation to
//! retry — after the client re-sends whatever was not acknowledged, in
//! file order, every file is ingested exactly once (a file the worker
//! admits while an earlier one is still shed gets a 409 and waits its turn:
//! PROTOCOL.md §6.1's order rule). The `server.load_shed` and
//! `server.queue_depth_peak` counters that record the episode are pure
//! observability: two runs of the same uploads, one squeezed through a
//! 1-deep queue and one through a roomy queue, must produce byte-identical
//! install records and protocol stats.
//!
//! How much is shed depends on who is faster. A worker is woken by every
//! send, so against a client that writes frame by frame it may drain each
//! upload before the next arrives and never overfill — correct, and up to
//! the scheduler. The frame-by-frame flood therefore asserts only what
//! holds however the race goes (nothing lost, every shed answered, the
//! queue bound kept); a flood written as one chunk, which reaches the
//! worker whole, pins the shed count itself.

use racket_collect::async_server::SHED_ERROR_CODE;
use racket_collect::wire::Message;
use racket_collect::{
    lzss, sha256, AsyncCollectServer, AsyncConn, AsyncServerConfig, FaultPlan, FrameCodec,
    ShardedIngest, SnapshotCollector,
};
use racket_obs::Registry;
use racket_types::metrics::keys;
use racket_types::{
    ApkHash, AppId, FastSnapshot, InstallDelta, InstallId, InstalledApp, ParticipantId,
    PermissionProfile, SimTime, Snapshot,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const P: ParticipantId = ParticipantId(123_456);
const I: InstallId = InstallId(1_000_000_001);
const N_FILES: u64 = 24;

/// One compressed single-snapshot upload payload, distinct per `t`.
fn payload(t: u64) -> Vec<u8> {
    let snap = Snapshot::Fast(FastSnapshot {
        install_id: I,
        participant_id: P,
        time: SimTime::from_secs(t),
        foreground_app: Some(AppId(1)),
        screen_on: true,
        battery_pct: 80,
        install_events: vec![InstallDelta::Installed(InstalledApp::fresh(
            AppId(1),
            SimTime::from_secs(0),
            PermissionProfile::default(),
            ApkHash([7; 16]),
        ))],
    });
    lzss::compress(&SnapshotCollector::serialize(&snap))
}

/// Drain replies until one decodes or the deadline passes.
fn recv_reply(conn: &mut AsyncConn, codec: &mut FrameCodec, timeout: Duration) -> Option<Message> {
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some(m)) = codec.try_decode_message() {
            return Some(m);
        }
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        match conn.recv_deadline(&mut buf, deadline - now) {
            Ok(0) => return None,
            Ok(n) => codec.feed(&buf[..n]),
            Err(_) => {} // deadline re-checked above
        }
    }
}

/// Everything one run produces that the data contract covers, plus the
/// observability counters it must NOT cover.
struct PlaneRun {
    /// Canonical rendering of the drained install records.
    record_fp: String,
    snapshots: u64,
    files: u64,
    sign_ins: u64,
    bad_uploads: u64,
    load_sheds: u64,
    queue_depth_peak: u64,
    /// `Error{429}` replies the client received.
    sheds_seen: u64,
}

/// How a retry round's uploads are written to the connection.
#[derive(Clone, Copy)]
enum Flood {
    /// One send per frame: the worker races the client.
    FrameByFrame,
    /// Every frame of the round in a single send: the worker finds them
    /// all at once.
    OneWrite,
}

/// Push the same `N_FILES` uploads through an async plane with the given
/// queue limit, retrying whatever gets shed until everything is acked.
fn run_plane(queue_limit: usize, flood: Flood) -> PlaneRun {
    let registry = Registry::new();
    let store = Arc::new(ShardedIngest::new(4));
    let srv = AsyncCollectServer::start(
        [P],
        Arc::clone(&store),
        AsyncServerConfig {
            workers: 1,
            queue_limit,
        },
    );
    let mut conn = srv.connect(FaultPlan::none(), 9);
    let mut codec = FrameCodec::strict();
    let mut seq = 0u32;

    conn.send(
        &Message::SignIn {
            participant: P,
            install: I,
        }
        .encode_seq(seq),
    )
    .unwrap();
    seq += 1;
    let ack = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)).expect("sign-in ack");
    assert_eq!(ack, Message::SignInAck { accepted: true });

    // Flood every file at once (overfilling a tiny queue), then keep
    // re-sending whatever was not acknowledged, oldest first. On a clean
    // link every sent frame gets exactly one reply — an ack if admitted in
    // its turn, a 409 if admitted ahead of it, a 429 if shed — so counting
    // replies per round keeps the loop deterministic.
    let mut unacked: BTreeSet<u64> = (1..=N_FILES).collect();
    let mut expected: std::collections::HashMap<u64, [u8; 32]> = Default::default();
    let mut sheds_seen = 0u64;
    for round in 0..100 {
        assert!(round < 99, "files should ack within the retry budget");
        let sent = unacked.len();
        let mut one_write = Vec::new();
        for &file_id in &unacked {
            let data = payload(file_id * 10);
            let digest = sha256(&data);
            let msg = Message::SnapshotUpload {
                install: I,
                file_id,
                fast: true,
                payload: data,
            };
            match flood {
                Flood::FrameByFrame => conn.send(&msg.encode_seq(seq)).unwrap(),
                Flood::OneWrite => one_write.extend_from_slice(&msg.encode_seq(seq)),
            }
            seq += 1;
            expected.insert(file_id, digest);
        }
        if let Flood::OneWrite = flood {
            conn.send(&one_write).unwrap();
        }
        let mut replies = 0;
        while replies < sent {
            let Some(reply) = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)) else {
                break;
            };
            replies += 1;
            match reply {
                Message::UploadAck { file_id, sha256 } => {
                    // The ack echoes the content digest (PROTOCOL.md §4) —
                    // only then may the client delete the buffered file.
                    assert_eq!(Some(&sha256), expected.get(&file_id), "ack digest");
                    unacked.remove(&file_id);
                }
                Message::Error { code, .. } if code == SHED_ERROR_CODE => sheds_seen += 1,
                // Admitted while an earlier file of the round was shed.
                Message::Error { code: 409, .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        if unacked.is_empty() {
            break;
        }
    }

    let stats = srv.shutdown(&registry);
    let store = Arc::try_unwrap(store).expect("workers joined at shutdown");
    let snapshots = store.snapshots_ingested();
    let mut record_fp = String::new();
    for r in store.into_records() {
        use std::fmt::Write;
        writeln!(
            record_fp,
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            r.install_id, r.participant, r.n_fast, r.first_seen, r.last_seen, r.snapshots_per_day
        )
        .unwrap();
    }
    let snap = registry.snapshot();
    PlaneRun {
        record_fp,
        snapshots,
        files: stats.files,
        sign_ins: stats.sign_ins,
        bad_uploads: stats.bad_uploads,
        load_sheds: snap.counter(keys::SERVER_LOAD_SHED),
        queue_depth_peak: snap.gauge(keys::SERVER_QUEUE_DEPTH_PEAK),
        sheds_seen,
    }
}

/// What must hold for a squeezed run whichever way the client/worker race
/// went: sheds are loud, nothing is lost, nothing reaches the data.
fn assert_lossless(squeezed: &PlaneRun, roomy: &PlaneRun) {
    // Every shed was answered with a 429 the client saw, and the queue
    // never grew past its 1-deep bound…
    assert_eq!(squeezed.load_sheds, squeezed.sheds_seen);
    assert_eq!(squeezed.queue_depth_peak, 1);
    assert_eq!(roomy.load_sheds, 0, "a roomy queue never sheds");
    assert_eq!(roomy.sheds_seen, 0);

    // …but zero data was lost: after retries, both runs ingested every
    // file exactly once.
    assert_eq!(squeezed.files, N_FILES);
    assert_eq!(squeezed.snapshots, N_FILES);
    assert_eq!(roomy.files, N_FILES);
    assert_eq!(roomy.snapshots, N_FILES);
    assert_eq!(squeezed.sign_ins, 1);
    assert_eq!(squeezed.bad_uploads, 0);

    // And the shed/queue-depth counters stayed out of the data: the
    // drained install records are byte-identical across queue limits.
    assert_eq!(
        squeezed.record_fp, roomy.record_fp,
        "backpressure must never reach the measurement database"
    );
}

#[test]
fn overfilled_queues_shed_loudly_and_lose_nothing() {
    let squeezed = run_plane(1, Flood::FrameByFrame);
    let roomy = run_plane(1024, Flood::FrameByFrame);
    assert_lossless(&squeezed, &roomy);
}

#[test]
fn a_flood_in_one_write_sheds_all_but_one_upload_per_round() {
    let squeezed = run_plane(1, Flood::OneWrite);
    let roomy = run_plane(1024, Flood::OneWrite);
    // A round of k uploads reaches the worker as one chunk: it admits the
    // first into the empty 1-deep queue and sheds the other k - 1 before
    // it drains anything. Rounds of 24, 23, … 1 shed 23 + 22 + … + 0.
    assert_eq!(squeezed.load_sheds, N_FILES * (N_FILES - 1) / 2);
    assert_lossless(&squeezed, &roomy);
}
