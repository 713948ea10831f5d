//! The ingest-plane benchmark behind the `large` scale: tens of
//! thousands of concurrent connections flooding the async collection
//! server, measured as aggregate snapshots ingested per wall-clock
//! second.
//!
//! Unlike the study-driven scales (`test`/`mid`/`paper`), this harness
//! does not simulate device behaviour — payload *production* (serialize,
//! LZSS, framing, CRC) is pre-computed per connection before the clock
//! starts, so the timed window measures exactly the server side of
//! ARCHITECTURE.md §8: readiness polling over the connection fleet, frame
//! decode, admission (hash → decompress → parse → dedup) and sharded
//! ingest. The window closes when every upload has been acknowledged, so
//! the reported rate is end-to-end (first byte in → last ack out), not a
//! producer-side send rate.
//!
//! The `bench_pipeline` binary runs this at two sizes:
//!
//! * [`IngestPlaneConfig::large`] — ≥ 10⁴ connections, the configuration
//!   whose `RunReport` lands in `BENCH_pipeline.json` under scale
//!   `large` (its validation floor is ≥ 1M snapshots/s aggregate);
//! * [`IngestPlaneConfig::smoke`] — a few hundred connections, run by
//!   `check.sh` (`--async-smoke`) to prove the plumbing without the
//!   throughput floor.

use racket_collect::wire::Message;
use racket_collect::{
    lzss, AsyncCollectServer, AsyncConn, AsyncServerConfig, FaultPlan, FrameCodec, ShardedIngest,
    SnapshotCollector,
};
use racket_obs::Registry;
use racket_types::metrics::keys;
use racket_types::{AppId, FastSnapshot, InstallId, ParticipantId, SimTime, Snapshot};
use std::sync::Arc;
use std::time::Instant;

/// Shape of one ingest-plane run.
#[derive(Debug, Clone, Copy)]
pub struct IngestPlaneConfig {
    /// Concurrent client connections (one install each).
    pub connections: usize,
    /// Upload files each connection sends inside the timed window. Must
    /// stay within the server's per-connection queue limit — the bench
    /// clients flood without retrying, so nothing may be shed.
    pub files_per_conn: usize,
    /// Snapshots packed into each upload file.
    pub snaps_per_file: usize,
}

impl IngestPlaneConfig {
    /// The `large` scale: 10⁴ connections, 1.28M snapshots.
    pub fn large() -> Self {
        IngestPlaneConfig {
            connections: 10_000,
            files_per_conn: 2,
            snaps_per_file: 64,
        }
    }

    /// The `check.sh` smoke shape: enough connections to exercise the
    /// reactor fleet, small enough for debug builds.
    pub fn smoke() -> Self {
        IngestPlaneConfig {
            connections: 200,
            files_per_conn: 2,
            snaps_per_file: 8,
        }
    }

    /// Total snapshots the run will ingest.
    pub fn total_snapshots(&self) -> u64 {
        (self.connections * self.files_per_conn * self.snaps_per_file) as u64
    }
}

/// What one ingest-plane run produced.
#[derive(Debug)]
pub struct IngestPlaneResult {
    /// Connections (= installs = devices) that signed in and uploaded.
    pub devices: usize,
    /// Snapshots ingested by the sharded store (must equal the config's
    /// [`IngestPlaneConfig::total_snapshots`] — zero loss, zero dups).
    pub snapshots: u64,
    /// Wall-clock length of the timed ingest window, seconds.
    pub elapsed_secs: f64,
    /// Aggregate ingest throughput over the window.
    pub snapshots_per_sec: f64,
    /// The run's private registry: the `ingest` span, server spans
    /// (`server/accept`, `server/poll`) and every
    /// shed/stall/ingest counter the workers reported at shutdown.
    pub registry: Registry,
}

/// One pre-built client: a live connection plus its pre-encoded frames.
struct Client {
    conn: AsyncConn,
    codec: FrameCodec,
    /// Upload frames, ready to write (seq 1.., sign-in consumed seq 0).
    frames: Vec<Vec<u8>>,
    acks_pending: usize,
}

/// Run the ingest plane at the given shape and return the measurements.
///
/// Panics if any upload is lost, duplicated or rejected — the bench is
/// also a correctness check on the plane at fleet width.
pub fn run(cfg: IngestPlaneConfig) -> IngestPlaneResult {
    let registry = Registry::new();
    let server_cfg = AsyncServerConfig::default();
    assert!(
        cfg.files_per_conn <= server_cfg.queue_limit,
        "bench clients do not retry; the flood must fit the queue"
    );
    registry.gauge_set(keys::THREADS, server_cfg.workers.max(1) as u64);

    let participants: Vec<ParticipantId> = (0..cfg.connections)
        .map(|i| ParticipantId(100_000 + i as u32))
        .collect();
    assert!(
        cfg.connections <= 900_000,
        "participant codes are six digits"
    );
    let store = Arc::new(ShardedIngest::new(64));
    let srv = AsyncCollectServer::start(participants.clone(), Arc::clone(&store), server_cfg);

    // ---- pre-compute every client's traffic (outside the window) -------
    let mut clients: Vec<Client> = (0..cfg.connections)
        .map(|i| {
            let install = InstallId(1_000_000_000 + i as u64);
            let mut frames = Vec::with_capacity(cfg.files_per_conn);
            for f in 0..cfg.files_per_conn {
                let snaps: Vec<Vec<u8>> = (0..cfg.snaps_per_file)
                    .map(|s| {
                        SnapshotCollector::serialize(&Snapshot::Fast(FastSnapshot {
                            install_id: install,
                            participant_id: participants[i],
                            time: SimTime::from_secs((f * cfg.snaps_per_file + s) as u64 * 5),
                            foreground_app: Some(AppId(1 + (s % 7) as u32)),
                            screen_on: true,
                            battery_pct: 100 - (s % 60) as u8,
                            install_events: vec![],
                        }))
                    })
                    .collect();
                let payload = lzss::compress(&snaps.concat());
                frames.push(
                    Message::SnapshotUpload {
                        install,
                        file_id: 1 + f as u64,
                        fast: true,
                        payload,
                    }
                    .encode_seq(1 + f as u32),
                );
            }
            Client {
                conn: srv.connect(FaultPlan::none(), i as u64),
                codec: FrameCodec::strict(),
                frames,
                acks_pending: cfg.files_per_conn,
            }
        })
        .collect();

    // ---- sign-in phase (still outside the window) ----------------------
    for (i, client) in clients.iter_mut().enumerate() {
        let msg = Message::SignIn {
            participant: participants[i],
            install: InstallId(1_000_000_000 + i as u64),
        };
        client
            .conn
            .send(&msg.encode_seq(0))
            .expect("sign-in frame sends");
    }
    let mut buf = vec![0u8; 16 * 1024];
    for client in clients.iter_mut() {
        loop {
            match client.codec.try_decode_message() {
                Ok(Some(Message::SignInAck { accepted })) => {
                    assert!(accepted, "bench participants are registered");
                    break;
                }
                Ok(Some(other)) => panic!("unexpected sign-in reply {other:?}"),
                Ok(None) | Err(_) => {}
            }
            match client
                .conn
                .recv_deadline(&mut buf, std::time::Duration::from_secs(30))
            {
                Ok(0) => panic!("server closed during sign-in"),
                Ok(n) => client.codec.feed(&buf[..n]),
                Err(_) => panic!("sign-in ack timed out"),
            }
        }
    }

    // ---- the timed window: flood, then drain every ack -----------------
    let span = registry.span("ingest");
    let t0 = Instant::now();
    for client in clients.iter_mut() {
        for frame in client.frames.drain(..) {
            client.conn.send(&frame).expect("upload frame sends");
        }
    }
    let mut outstanding = clients.len();
    while outstanding > 0 {
        let mut progressed = false;
        for client in clients.iter_mut() {
            if client.acks_pending == 0 {
                continue;
            }
            while let Ok(n) = client.conn.try_recv(&mut buf) {
                if n == 0 {
                    panic!("server closed mid-flood");
                }
                client.codec.feed(&buf[..n]);
                progressed = true;
            }
            while let Ok(Some(msg)) = client.codec.try_decode_message() {
                match msg {
                    Message::UploadAck { .. } => {
                        client.acks_pending -= 1;
                        if client.acks_pending == 0 {
                            outstanding -= 1;
                        }
                    }
                    other => panic!("unexpected upload reply {other:?}"),
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let elapsed = t0.elapsed();
    drop(span);

    let stats = srv.shutdown(&registry);
    let store = Arc::try_unwrap(store).expect("workers joined at shutdown");
    let snapshots = store.snapshots_ingested();
    registry.add(keys::SNAPSHOTS_INGESTED, snapshots);

    // Correctness gates: exactly-once, nothing shed, nothing rejected.
    assert_eq!(stats.sign_ins as usize, cfg.connections);
    assert_eq!(stats.files, (cfg.connections * cfg.files_per_conn) as u64);
    assert_eq!(stats.bad_uploads, 0, "every payload decodes");
    assert_eq!(stats.dup_files, 0, "nothing was retransmitted");
    assert_eq!(
        snapshots,
        cfg.total_snapshots(),
        "zero snapshot loss across the plane"
    );
    let shed = registry.snapshot().counter(keys::SERVER_LOAD_SHED);
    assert_eq!(shed, 0, "the flood fits the queue limit by construction");

    let elapsed_secs = elapsed.as_secs_f64();
    IngestPlaneResult {
        devices: cfg.connections,
        snapshots,
        elapsed_secs,
        snapshots_per_sec: snapshots as f64 / elapsed_secs.max(1e-9),
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plane_ingests_every_snapshot_exactly_once() {
        let cfg = IngestPlaneConfig {
            connections: 32,
            files_per_conn: 2,
            snaps_per_file: 4,
        };
        let result = run(cfg);
        assert_eq!(result.devices, 32);
        assert_eq!(result.snapshots, cfg.total_snapshots());
        assert!(result.snapshots_per_sec > 0.0);
        assert!(
            result.registry.snapshot().counter(keys::SNAPSHOTS_INGESTED) == cfg.total_snapshots()
        );
    }
}
