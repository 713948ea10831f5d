//! `ingest_plane`: the collection server alone. Thousands of in-memory
//! `AsyncConn` lanes, multiplexed by this one generator thread, push
//! pre-encoded upload files into a fresh `AsyncCollectServer`; the
//! simulator and the analysis chain never run.
//!
//! * **flood** (closed; every run): every lane sends all its files, the
//!   window runs from the first byte to the last ack — capacity.
//! * **paced** (open loop; traced runs): the same files offered at a fixed
//!   rate on a schedule that does not slow when the server does; each ack
//!   is timed from the moment its frame was *due* — latency.

use crate::chain;
use crate::e2e::FLEET_SEED;
use crate::harness::{self, Rep, RunArgs};
use crate::kernels::{self, Files};
use crate::metrics::{Outcome, Values};
use crate::stats::percentile;
use crate::trace::Tracer;
use racket_agents::FleetConfig;
use racket_collect::wire::Message;
use racket_collect::{
    AsyncCollectServer, AsyncConn, AsyncServerConfig, FaultPlan, FrameCodec, ShardedIngest,
};
use racket_obs::Registry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the paced phase, snapshots per second: a little under
/// half of what the flood sustains on two cores with these files, so the
/// backlog does not grow and the phase measures latency, not capacity.
const PACED_SNAPSHOTS_PER_S: f64 = 200_000.0;
/// What a shed or never-acknowledged file counts as in the latency sample.
const MISSED_MS: f64 = 60_000.0;
/// Longest the generator waits for acks before declaring them lost.
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// A lane's live connection during one repetition.
struct Client {
    conn: AsyncConn,
    codec: FrameCodec,
    /// Due times (seconds since the phase began) of the unacknowledged
    /// files, oldest first — acks arrive in sending order per lane.
    in_flight: VecDeque<f64>,
}

/// A fresh server with every lane connected and signed in.
struct Plane {
    server: AsyncCollectServer,
    store: Arc<ShardedIngest>,
    clients: Vec<Client>,
}

/// Run the workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Outcome {
    let (n_lanes, snaps_per_lane) = if args.smoke { (200, 48) } else { (10_000, 96) };
    // The population is fixed (see `FLEET_SEED`); `--seed` decides which
    // device each lane polls and when, so the bytes differ run to run while
    // the amount of work does not.
    let mut fleet = FleetConfig::test_scale();
    fleet.seed = FLEET_SEED;
    let mut outcome = Outcome::default();

    let files = harness::repeat_setup(args.smoke, &mut outcome.values, || {
        let files = kernels::build_files(&fleet, args.seed, n_lanes, snaps_per_lane);
        flood(tracer, &files, &mut Outcome::default());
        files
    });
    eprintln!(
        "[ingest_plane] {} lanes, {} files, {} snapshots, {:.1} MB raw, {:.1} MB on the wire",
        files.lanes.len(),
        files.n_files,
        files.snapshots,
        files.raw_bytes as f64 / 1e6,
        files.compressed_bytes as f64 / 1e6
    );

    // Traced runs keep half the window for the paced phase.
    let mut flood_args = args.clone();
    if args.trace {
        flood_args.seconds = args.seconds / 2.0;
    }
    let reps = harness::run_reps(&flood_args, tracer, false, || {
        flood(tracer, &files, &mut outcome)
    });
    harness::fold_reps(&reps, &mut outcome.values);

    if args.trace {
        paced(&files, &mut outcome);
        kernels::replay(&files, &mut outcome.values);
    }
    outcome
}

/// Start a server sized for this box and sign every lane in.
fn connect(files: &Files) -> Plane {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let deepest = files
        .lanes
        .iter()
        .map(|l| l.frames.len())
        .max()
        .unwrap_or(0);
    let config = AsyncServerConfig {
        // One core stays with the generator thread.
        workers: nproc.saturating_sub(1).max(1),
        // The flood does not retry, so nothing may be shed.
        queue_limit: AsyncServerConfig::default().queue_limit.max(deepest),
        ..AsyncServerConfig::default()
    };
    let store = Arc::new(ShardedIngest::new(64));
    let server = AsyncCollectServer::start(
        files.lanes.iter().map(|l| l.participant),
        Arc::clone(&store),
        config,
    );
    let mut clients: Vec<Client> = files
        .lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            let mut conn = server.connect(FaultPlan::none(), i as u64);
            let sign_in = Message::SignIn {
                participant: lane.participant,
                install: lane.install,
            };
            conn.send(&sign_in.encode_seq(0)).expect("sign-in sends");
            Client {
                conn,
                codec: FrameCodec::strict(),
                in_flight: VecDeque::new(),
            }
        })
        .collect();
    let mut buf = vec![0u8; 16 * 1024];
    for client in &mut clients {
        loop {
            match client.codec.try_decode_message() {
                Ok(Some(Message::SignInAck { accepted: true })) => break,
                Ok(Some(other)) => panic!("unexpected sign-in reply {other:?}"),
                Ok(None) | Err(_) => {}
            }
            match client.conn.recv_deadline(&mut buf, ACK_TIMEOUT) {
                Ok(0) | Err(_) => panic!("no sign-in ack from the server"),
                Ok(n) => client.codec.feed(&buf[..n]),
            }
        }
    }
    Plane {
        server,
        store,
        clients,
    }
}

/// Read whatever `client` has waiting; call `on_ack(due)` per `UploadAck`
/// and `on_shed(due)` per 429. Returns whether any byte arrived.
fn drain_acks(
    client: &mut Client,
    buf: &mut [u8],
    mut on_ack: impl FnMut(f64),
    mut on_shed: impl FnMut(f64),
) -> bool {
    let mut progressed = false;
    while let Ok(n) = client.conn.try_recv(buf) {
        assert!(n > 0, "server closed a connection mid-run");
        client.codec.feed(&buf[..n]);
        progressed = true;
    }
    while let Ok(Some(msg)) = client.codec.try_decode_message() {
        let due = client.in_flight.pop_front().unwrap_or(0.0);
        match msg {
            Message::UploadAck { .. } => on_ack(due),
            Message::Error { .. } => on_shed(due),
            other => panic!("unexpected upload reply {other:?}"),
        }
    }
    progressed
}

/// Stop the server and hold the repetition to exactly-once ingest.
fn finish(plane: Plane, files: &Files, unacked: u64, shed: u64, outcome: &mut Outcome) -> Values {
    let registry = Registry::new();
    let stats = plane.server.shutdown(&registry);
    drop(plane.clients);
    let store = Arc::try_unwrap(plane.store).expect("workers joined at shutdown");
    let snap = registry.snapshot();
    outcome.ops(
        files.n_files,
        stats.bad_uploads + shed + unacked,
        "upload files",
    );
    outcome.check(
        store.snapshots_ingested() == files.snapshots
            && stats.files == files.n_files
            && stats.dup_files == 0
            && stats.sign_ins == files.lanes.len() as u64,
        "snapshots ingested == snapshots offered, every file exactly once",
    );
    let mut layers = Values::new();
    chain::server_layers(&snap, &mut layers);
    layers.insert(
        "collect.shard.skew",
        kernels::occupancy_skew(&store.occupancy()),
    );
    layers
}

/// One closed-loop flood: first byte in → last ack out. Sign-in before and
/// shutdown after are outside the window (and under spans of their own).
fn flood(t: &Tracer, files: &Files, outcome: &mut Outcome) -> Rep {
    let mut buf = vec![0u8; 16 * 1024];
    let (mut plane, _) = t.time("collect.async_server.sign_in", || connect(files));
    let t0 = Instant::now();
    t.time("bench.generator.send", || {
        for (client, lane) in plane.clients.iter_mut().zip(&files.lanes) {
            for frame in &lane.frames {
                client.conn.send(frame).expect("upload frame sends");
                client.in_flight.push_back(0.0);
            }
        }
    });
    let mut shed = 0u64;
    t.time("collect.async_server.drain", || {
        let mut outstanding: Vec<usize> = (0..plane.clients.len()).collect();
        while !outstanding.is_empty() && t0.elapsed() < ACK_TIMEOUT {
            let mut progressed = false;
            outstanding.retain(|&i| {
                let client = &mut plane.clients[i];
                progressed |= drain_acks(client, &mut buf, |_| (), |_| shed += 1);
                !client.in_flight.is_empty()
            });
            if !progressed {
                std::thread::yield_now();
            }
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let unacked: usize = plane.clients.iter().map(|c| c.in_flight.len()).sum();
    let (layers, _) = t.time("collect.async_server.shutdown", || {
        finish(plane, files, unacked as u64, shed, outcome)
    });
    let mut extras = Values::new();
    extras.insert("snapshots_per_s", files.snapshots as f64 / wall_s);
    Rep {
        wall_s,
        units: files.snapshots,
        extras,
        layers,
        inside_run_s: 0.0,
    }
}

/// When file `k` of the paced schedule is due, seconds since the start.
pub fn due_time(k: usize, files_per_s: f64) -> f64 {
    k as f64 / files_per_s
}

/// The open loop. File `k` goes to lane `k mod lanes` (each lane's files
/// in order) and is due at `k / rate`; a late generator sends it late but
/// still times its ack from the due time, so a stall is charged to every
/// file it delayed.
fn paced(files: &Files, outcome: &mut Outcome) {
    let mut plane = connect(files);
    let n_lanes = files.lanes.len();
    let total = files.n_files as usize;
    let files_per_s = PACED_SNAPSHOTS_PER_S * files.n_files as f64 / files.snapshots as f64;
    // Schedule order: round `r` visits every lane that still has a file.
    let mut schedule: Vec<(usize, usize)> = Vec::with_capacity(total);
    let deepest = files
        .lanes
        .iter()
        .map(|l| l.frames.len())
        .max()
        .unwrap_or(0);
    for r in 0..deepest {
        schedule.extend(
            (0..n_lanes)
                .filter(|&i| r < files.lanes[i].frames.len())
                .map(|i| (i, r)),
        );
    }

    let mut buf = vec![0u8; 16 * 1024];
    let mut ack_ms: Vec<f64> = Vec::with_capacity(total);
    let mut lag_ms: Vec<f64> = Vec::with_capacity(total);
    let mut waiting: Vec<usize> = Vec::new();
    let mut shed = 0u64;
    let mut next = 0;
    let t0 = Instant::now();
    while (next < total || !waiting.is_empty()) && t0.elapsed() < ACK_TIMEOUT {
        let now = t0.elapsed().as_secs_f64();
        while next < total && due_time(next, files_per_s) <= now {
            let (lane, file) = schedule[next];
            let due = due_time(next, files_per_s);
            let client = &mut plane.clients[lane];
            client
                .conn
                .send(&files.lanes[lane].frames[file])
                .expect("upload frame sends");
            lag_ms.push((t0.elapsed().as_secs_f64() - due) * 1e3);
            if client.in_flight.is_empty() {
                waiting.push(lane);
            }
            client.in_flight.push_back(due);
            next += 1;
        }
        waiting.retain(|&i| {
            let client = &mut plane.clients[i];
            let now = t0.elapsed().as_secs_f64();
            drain_acks(
                client,
                &mut buf,
                |due| ack_ms.push((now - due) * 1e3),
                |_| shed += 1,
            );
            !client.in_flight.is_empty()
        });
        std::hint::spin_loop();
    }
    let unacked: usize = plane.clients.iter().map(|c| c.in_flight.len()).sum();
    ack_ms.resize(total, MISSED_MS);
    finish(plane, files, unacked as u64, shed, outcome);
    outcome
        .values
        .insert("ack_ms_p50", percentile(&ack_ms, 50.0));
    outcome
        .values
        .insert("ack_ms_p99", percentile(&ack_ms, 99.0));
    outcome
        .values
        .insert("bench.generator_lag_ms_p99", percentile(&lag_ms, 99.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_generator() {
        // 4 files/s: one every 250 ms, whatever happened to earlier files.
        assert_eq!(due_time(0, 4.0), 0.0);
        assert_eq!(due_time(1, 4.0), 0.25);
        assert_eq!(due_time(8, 4.0), 2.0);
        // A generator that sends file 8 at 2.4 s ran 400 ms late; an ack at
        // 2.5 s is 500 ms after the file was due, not 100 ms after it left.
        let (sent, acked) = (2.4, 2.5);
        assert!(((sent - due_time(8, 4.0)) * 1e3 - 400.0f64).abs() < 1e-9);
        assert!(((acked - due_time(8, 4.0)) * 1e3 - 500.0f64).abs() < 1e-9);
    }

    #[test]
    fn a_small_plane_floods_and_paces_exactly_once() {
        let mut fleet = FleetConfig::test_scale();
        fleet.history_days = 10;
        let files = kernels::build_files(&fleet, 3, 16, 24);
        let mut outcome = Outcome::default();
        let rep = flood(&Tracer::default(), &files, &mut outcome);
        assert_eq!(rep.units, files.snapshots);
        paced(&files, &mut outcome);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
        assert!(outcome.values["ack_ms_p50"] > 0.0);
        assert!(outcome.values["ack_ms_p50"] < MISSED_MS);
    }
}
