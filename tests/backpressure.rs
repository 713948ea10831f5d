//! Backpressure regression suite: the async collection plane's bounded
//! per-connection queues must shed visibly, lose nothing, and leave no
//! trace in the data output.
//!
//! Contract under test (ARCHITECTURE.md §8, PROTOCOL.md "Concurrent
//! connections"): when a client floods uploads faster than its worker
//! drains them, the server sheds the excess with an explicit `Error{429}`
//! reply instead of buffering unboundedly. The shed is an invitation to
//! retry — after the client re-sends whatever was not acknowledged, every
//! file is ingested exactly once. The `server.load_shed` and
//! `server.queue_depth_peak` counters that record the episode are pure
//! observability: two runs of the same uploads, one squeezed through a
//! 1-deep queue and one through a roomy queue, must produce byte-identical
//! install records and protocol stats.

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
use std::collections::HashSet;
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
}

/// Push the same `N_FILES` uploads through an async plane with the given
/// queue limit, retrying whatever gets shed until everything is acked.
fn run_plane(queue_limit: usize) -> PlaneRun {
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
    // re-sending whatever was not acknowledged. A round's frames go out
    // as one write: the worker is woken by the send and would otherwise
    // drain each frame before the next is even encoded, so whether the
    // queue overfills would depend on scheduling. On a clean link every
    // sent frame gets exactly one reply — an ack if admitted, a 429 if
    // shed — so counting replies per round keeps the loop deterministic.
    let mut unacked: HashSet<u64> = (1..=N_FILES).collect();
    let mut expected: std::collections::HashMap<u64, [u8; 32]> = Default::default();
    for round in 0..100 {
        assert!(round < 99, "files should ack within the retry budget");
        let sent = unacked.len();
        let mut flood = Vec::new();
        for &file_id in &unacked {
            let data = payload(file_id * 10);
            let digest = sha256(&data);
            let msg = Message::SnapshotUpload {
                install: I,
                file_id,
                fast: true,
                payload: data,
            };
            flood.extend_from_slice(&msg.encode_seq(seq));
            seq += 1;
            expected.insert(file_id, digest);
        }
        conn.send(&flood).unwrap();
        let mut replies = 0;
        while replies < sent {
            let Some(reply) = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)) else {
                break;
            };
            replies += 1;
            if let Message::UploadAck { file_id, sha256 } = reply {
                // The ack echoes the content digest (PROTOCOL.md §4) —
                // only then may the client delete the buffered file.
                assert_eq!(Some(&sha256), expected.get(&file_id), "ack digest");
                unacked.remove(&file_id);
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
    }
}

#[test]
fn overfilled_queues_shed_loudly_and_lose_nothing() {
    let squeezed = run_plane(1);
    let roomy = run_plane(1024);

    // The pressure was real and the counters saw it…
    assert!(
        squeezed.load_sheds > 0,
        "a {N_FILES}-deep flood into a 1-deep queue must shed"
    );
    assert!(squeezed.queue_depth_peak >= 1);
    assert_eq!(roomy.load_sheds, 0, "a roomy queue never sheds");

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
