//! Allocation pins, by count under a counting allocator (never by clock).
//!
//! Seven hot paths whose cost model *is* their allocation count: the
//! simulator's steady-state lane-day (below), an empty poll of an
//! in-memory connection (the async plane's load generator makes 10⁴ of
//! them per round, so one boxed error each was most of `ingest_plane`'s
//! allocations per snapshot), a lane's windowed upload tick (whose window
//! is two integers and a timestamp, not a list), the server's fold of a
//! slow snapshot (lists overwritten in place), an upload through the
//! protocol core (decoded into the caller's pooled batch), the
//! near-duplicate scan (which used to allocate per bucket and per candidate
//! and now allocates for its output only), and a boosted fit (whose split
//! search works inside buffers sized once per fit). The counter is per
//! thread, so the tests run side by side.
//!
//! The lane engine's contract (ARCHITECTURE.md §12) is that a steady-state
//! device-day — plan, poll snapshots at every action boundary, apply —
//! performs (near-)zero heap allocations: every buffer involved
//! (`LaneScratch` action/shuffle/index vectors, the pooled `SnapshotBatch`
//! and its inner `install_events` / `accounts` / `stopped_apps` vectors,
//! the collector's delta baselines) is reused across days. The only
//! allocations left are inherent ground-truth growth: the device event
//! log's amortised doubling and the per-app usage-day set gaining one
//! entry per (app, day). This test replays the driver's lane-day loop
//! under a counting allocator and pins the per-day allocation count to a
//! small constant; the pre-overhaul path (per-day index rebuilds, fresh
//! `Vec<Snapshot>` per poll, fresh delta vector per fast tick) costs
//! thousands per day and trips the pin immediately.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use racket_agents::{apply_action_collecting, DeviceAgent, LaneScratch, PersonaParams};
use racket_collect::Message;
use racket_collect::{
    AsyncCollectServer, AsyncServerConfig, CollectorConfig, DataBuffer, FaultPlan, IngestScratch,
    MemTransport, ProtocolCore, ShardedIngest, SnapshotBatch, SnapshotCollector, WireLane,
};
use racket_device::Device;
use racket_playstore::{AppCatalog, CatalogConfig, GoogleIdDirectory, ReviewStore};
use racket_text::{mix64, NearDupIndex};
use racket_types::{
    AccountId, AccountService, AndroidId, ApkHash, AppId, FastSnapshot, InstallDelta, InstallId,
    InstalledApp, ParticipantId, Permission, PermissionProfile, RegisteredAccount, SimDuration,
    SimTime, SlowSnapshot, Snapshot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every allocation (and reallocation) the calling thread makes
/// through the global allocator. Deallocations are not interesting here:
/// the pin is on how often the hot path *asks* for memory.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator allocates nothing and is valid for the thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// `GlobalAlloc` is an unsafe trait; every method forwards to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on allocations per steady-state lane-day. Measured ~2–6/day
/// (usage-day set nodes plus rare event-log doublings); the bound leaves
/// headroom for allocator-library jitter while staying two orders of
/// magnitude under the pre-overhaul cost.
const MAX_ALLOCS_PER_DAY: u64 = 64;

#[test]
fn steady_state_lane_day_is_allocation_free() {
    // An opens-only persona: zero install/uninstall churn and zero review
    // propensity isolates the steady state (no package events, so even the
    // collector's delta scan short-circuits on the package stamp). Daily
    // opens stay at the regular-user rate — the busiest allocation-free
    // part of a real day.
    let mut params = PersonaParams::regular();
    params.daily_installs = racket_agents::ClampedLogNormal::new(1.0, 0.0, 0.0, 0.0);
    params.daily_uninstalls = racket_agents::ClampedLogNormal::new(1.0, 0.0, 0.0, 0.0);
    params.personal_review_prob = 0.0;
    params.enthusiast_prob = 0.0;

    let catalog = AppCatalog::generate(&CatalogConfig::default());
    let mut store = ReviewStore::new();
    let mut directory = GoogleIdDirectory::new();
    let mut ids = racket_agents::IdAllocator::default();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut device = Device::new(Some(AndroidId(1)));
    let mut agent = DeviceAgent::with_params(params, &mut rng);

    let day0 = SimTime::from_days(30);
    let horizon = SimTime::from_days(120);
    agent.setup_history(
        &mut device,
        &catalog,
        &mut store,
        &mut directory,
        &mut ids,
        day0,
        horizon,
        &mut rng,
    );

    let mut scratch = LaneScratch::new();
    scratch.seed_indexes(&device, &catalog, racket_types::Persona::Regular);
    // Thinned cadence keeps the debug-mode test quick; the allocation
    // contract is cadence-independent (each tick reuses the same pools).
    let config = CollectorConfig {
        fast_period_secs: 60,
        slow_period_secs: 600,
        collect_reviews: false,
    };
    let mut collector = SnapshotCollector::new(config, InstallId(1), ParticipantId(1));
    let mut batch = SnapshotBatch::new();

    const WARMUP_DAYS: u64 = 5;
    const MEASURED_DAYS: u64 = 50;
    let mut snapshots_seen = 0usize;
    let mut measured_start = 0u64;

    for day in 0..(WARMUP_DAYS + MEASURED_DAYS) {
        if day == WARMUP_DAYS {
            measured_start = allocations();
        }
        let day_start = day0 + SimDuration::from_days(day);
        let day_end = day_start + SimDuration::from_days(1);
        scratch.begin_day();
        agent.plan_day_into(
            &device,
            &catalog,
            day_start,
            horizon,
            &mut rng,
            &mut scratch,
        );
        let actions = std::mem::take(&mut scratch.actions);
        for ta in &actions {
            if ta.time >= day_end {
                continue;
            }
            batch.clear();
            collector.poll_into(&device, ta.time, &mut batch);
            snapshots_seen += batch.len();
            apply_action_collecting(&mut device, &mut scratch.reviews, &catalog, ta, &mut rng);
        }
        batch.clear();
        let last_tick = SimTime::from_secs(day_end.as_secs() - 1);
        collector.poll_into(&device, last_tick, &mut batch);
        snapshots_seen += batch.len();
        scratch.actions = actions;
    }

    let measured = allocations() - measured_start;
    let per_day = measured / MEASURED_DAYS;
    assert!(
        snapshots_seen > 10_000,
        "harness must actually exercise the collector (saw {snapshots_seen} snapshots)"
    );
    assert!(
        scratch.reviews.is_empty(),
        "opens-only persona must not produce reviews"
    );
    assert!(
        per_day <= MAX_ALLOCS_PER_DAY,
        "steady-state lane-day allocated {per_day}×/day (total {measured} over \
         {MEASURED_DAYS} days); the hot path has regressed past the \
         {MAX_ALLOCS_PER_DAY}/day pin"
    );
}

/// An empty poll of a connected in-memory pair is a stall, not an event:
/// `WouldBlock` must come back without touching the heap, from the
/// non-blocking call and from the deadline call alike.
#[test]
fn empty_polls_allocate_nothing() {
    let (mut end, _peer) = MemTransport::pair();
    let mut buf = [0u8; 64];
    let would_block = |r: std::io::Result<usize>| matches!(r, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock);
    let before = allocations();
    for _ in 0..10_000 {
        assert!(would_block(end.try_recv(&mut buf)));
    }
    assert!(would_block(
        end.recv_deadline(&mut buf, std::time::Duration::ZERO)
    ));
    assert_eq!(allocations() - before, 0, "an empty poll allocated");
}

/// A lane's upload tick — pick up the acks that are back, send what the
/// window admits, settle — keeps no list of what is in flight (the server
/// acknowledges an install's files in order, so that set is a prefix of the
/// buffer's queue) and decodes an ack without copying it. What is left is
/// the in-memory transport's own copy of each transmitted frame: the file's
/// bytes in flight, one allocation per transmission and none per tick. The
/// server half runs on the async plane's worker thread, so this thread's
/// count is the lane's alone.
#[test]
fn steady_state_windowed_upload_allocates_nothing() {
    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);
    let server = AsyncCollectServer::start(
        [P],
        std::sync::Arc::new(ShardedIngest::new(4)),
        AsyncServerConfig {
            workers: 1,
            ..AsyncServerConfig::default()
        },
    );
    let mut lane = WireLane::new_async(I, P, 7, server.connect(FaultPlan::none(), 7));
    assert_eq!(lane.sign_in(), Some(true));
    let slow = |t: u64| {
        Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: Some(AndroidId(1)),
            time: SimTime::from_secs(t),
            accounts: Vec::new(),
            save_mode: false,
            stopped_apps: (0..5).map(AppId).collect(),
            review_events: Vec::new(),
        })
    };
    let mut buffer = DataBuffer::new();
    let (mut t, mut ticks, mut spent, mut sent) = (0u64, 0u64, 0u64, 0u64);
    // Ticks of one to five files each, the buffer left mid-file so the lane
    // does not wait the window out; the first 50 files warm the pooled
    // frame buffer, the codec and the channel queues up.
    while lane.stats().files_acked < 400 {
        let queued = buffer.pending_count();
        while buffer.pending_count() < queued + 1 + (ticks % 5) as usize {
            t += 1;
            buffer.push(&slow(t));
        }
        let (before, attempts) = (allocations(), lane.stats().attempts);
        lane.upload_pending(&mut buffer);
        if lane.stats().files_acked >= 50 {
            spent += allocations() - before;
            sent += lane.stats().attempts - attempts;
            ticks += 1;
        }
    }
    assert!(ticks >= 70 && sent >= 300, "{ticks} ticks, {sent} frames");
    // How deep the reply queue and the codec's buffer get depends on how the
    // worker thread is scheduled; reaching a new depth grows a pool once.
    // A list per tick or a copy per ack costs one or more per tick.
    assert!(
        spent <= sent + 8,
        "{ticks} upload ticks sending {sent} frames allocated {spent}×: \
         more than the transport's one copy of each frame"
    );
    server.shutdown(&racket_obs::Registry::new());
}

/// The server-side fold of a slow snapshot overwrites the record's account
/// and stopped-app lists in place: once the record has seen one snapshot of
/// a shape, more of the same shape ask for no memory. Assigning fresh
/// clones instead costs two allocations a snapshot.
#[test]
fn steady_state_slow_snapshot_fold_allocates_nothing() {
    let slow = |t: u64| {
        Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(1),
            participant_id: ParticipantId(1),
            android_id: Some(AndroidId(1)),
            time: SimTime::from_secs(t),
            accounts: (0..3)
                .map(|i| RegisteredAccount::non_gmail(AccountId(i), AccountService::Facebook))
                .collect(),
            save_mode: false,
            stopped_apps: (0..5).map(AppId).collect(),
            review_events: Vec::new(),
        })
    };
    // One calendar day, so the per-day count map gains no entry either.
    let snapshots: Vec<Snapshot> = (0..=1_000).map(|i| slow(60 * i)).collect();
    let store = ShardedIngest::new(8);
    store.ingest_batch(&snapshots[..1]);
    let before = allocations();
    for snapshot in &snapshots[1..] {
        store.ingest_batch(std::slice::from_ref(snapshot));
    }
    let spent = allocations() - before;
    assert_eq!(store.record(InstallId(1)).expect("record").n_slow, 1_001);
    assert_eq!(
        spent, 0,
        "1,000 same-shape slow snapshots allocated {spent}×"
    );
}

/// After a caller's first file, an upload of the same shape through
/// `ProtocolCore::handle` asks for memory a constant number of times,
/// however many apps and snapshots it holds: the inflate buffer and the
/// decode batch are the caller's `IngestScratch`, reused file after file,
/// and an installed app (permission lists inline) is copied into the
/// record's existing row. Each file here is one fast snapshot listing the
/// install's apps plus slow snapshots, sent as the install's next file id.
/// It measures 1 per file (the app table sorts a file's deltas in one
/// vector); the pin allows 2. A decoder that allocates each
/// app's three permission lists, and a fold that clones them, cost 210
/// allocations a file at 50 apps and 834 at 200.
#[test]
fn steady_state_upload_allocates_a_constant_per_file() {
    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);
    let upload = |file_id: u64, n_apps: u32, n_slow: u64| {
        let profile = PermissionProfile::grant_all(
            [
                Permission::Internet,
                Permission::Camera,
                Permission::ReadContacts,
                Permission::AccessFineLocation,
            ]
            .into_iter()
            .collect(),
        );
        // Installed before the first snapshot and re-listed unchanged, on
        // one calendar day: the record gains no event and no entry.
        let fast = Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(86_400 + file_id),
            foreground_app: Some(AppId(0)),
            screen_on: true,
            battery_pct: 80,
            install_events: (0..n_apps)
                .map(|app| {
                    InstallDelta::Installed(InstalledApp::fresh(
                        AppId(app),
                        SimTime::from_secs(u64::from(app)),
                        profile,
                        ApkHash([app as u8; 16]),
                    ))
                })
                .collect(),
        });
        let mut raw = SnapshotCollector::serialize(&fast);
        for k in 0..n_slow {
            let slow = Snapshot::Slow(SlowSnapshot {
                install_id: I,
                participant_id: P,
                android_id: Some(AndroidId(1)),
                time: SimTime::from_secs(86_400 + file_id + k),
                accounts: vec![RegisteredAccount::non_gmail(
                    AccountId(1),
                    AccountService::Facebook,
                )],
                save_mode: false,
                stopped_apps: (0..5).map(AppId).collect(),
                review_events: Vec::new(),
            });
            SnapshotCollector::serialize_into(&slow, &mut raw);
        }
        Message::SnapshotUpload {
            install: I,
            file_id,
            fast: true,
            payload: racket_collect::lzss::compress(&raw),
        }
    };
    // Allocations per file over files 2..=21 of one install.
    let per_file = |n_apps: u32, n_slow: u64| {
        let server = ProtocolCore::new([P], std::sync::Arc::new(ShardedIngest::new(8)));
        let mut scratch = IngestScratch::new();
        let sign_in = Message::SignIn {
            participant: P,
            install: I,
        };
        assert_eq!(
            server.handle(sign_in, &mut scratch),
            Some(Message::SignInAck { accepted: true })
        );
        let uploads: Vec<Message> = (1..=21).map(|id| upload(id, n_apps, n_slow)).collect();
        let mut spent = Vec::new();
        for (id, msg) in (1..).zip(uploads) {
            let before = allocations();
            let reply = server.handle(msg, &mut scratch);
            spent.push(allocations() - before);
            assert!(
                matches!(reply, Some(Message::UploadAck { file_id, .. }) if file_id == id),
                "{reply:?}"
            );
        }
        assert_eq!(server.stats().snapshots, 21 * (1 + n_slow));
        spent.split_off(1)
    };
    let small = per_file(50, 4);
    let large = per_file(200, 16);
    assert!(
        small.iter().chain(&large).all(|&n| n == small[0] && n <= 2),
        "allocations per file after the first: 50 apps + 4 slow {small:?}, \
         200 apps + 16 slow {large:?}"
    );
}

/// The near-duplicate scan verifies candidates as it generates them: its
/// allocations are a handful of buffers plus the B-tree of verified owner
/// pairs it returns, however many candidates the buckets hold. Here 200
/// low-band buckets of 100 rows each give ~10⁶ candidates for < 2·10⁴
/// owner pairs; a scan that stores per bucket or per candidate allocates
/// 10⁵ times and more.
#[test]
fn near_dup_scan_allocates_for_its_output_only() {
    let mut index = NearDupIndex::new();
    for row in 0..20_000u64 {
        let (bucket, owner, noise) = (row / 100, mix64(!row) % 200, mix64(row));
        // Every other row is its bucket's template with up to two bits
        // flipped (verified against each other); the rest share nothing
        // with it but the low band (candidates, rejected).
        let upper = if row % 2 == 0 {
            mix64(bucket) ^ (1 << (16 + noise % 48)) ^ (1 << (16 + (noise >> 8) % 48))
        } else {
            noise
        };
        index.insert(owner, (upper & !0xFFFF) | bucket);
    }
    let before = allocations();
    let scan = index.scan(6);
    let spent = allocations() - before;
    assert!(
        scan.n_candidates > 900_000 && scan.n_verified > 200_000,
        "the corpus must be collision-heavy ({} candidates, {} verified)",
        scan.n_candidates,
        scan.n_verified
    );
    let ceiling = 64 + scan.pairs.len() as u64 / 4;
    assert!(
        spent <= ceiling,
        "scan allocated {spent}× for {} candidates and {} owner pairs (ceiling {ceiling})",
        scan.n_candidates,
        scan.pairs.len()
    );
}

/// A boosted fit asks for memory per *round* — the tree's node vector as
/// it grows, the two subsample draws, the finished tree — and never per
/// node: the split search works inside buffers sized once per fit.
/// Differencing a 100-round against a 50-round fit of the same matrix
/// cancels the per-fit set-up (transpose, presort, buffers) and leaves 50
/// rounds of steady state: 4.9 allocations a round. A search that takes
/// and returns per-node lists from a pool measured 31 a round here (pool
/// growth, per-node list-of-lists, per-round gradient vectors).
#[test]
fn gbt_fit_allocates_per_round_not_per_node() {
    use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};
    // 1,500 × 21, column f holding 2, 5, 17, 100 or ~1,500 distinct values.
    let mut s: u64 = 0x5eed_0020;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let levels = [2u64, 5, 17, 100, 1 << 20];
    let x: Vec<Vec<f64>> = (0..1_500)
        .map(|_| (0..21).map(|f| (next() % levels[f % 5]) as f64).collect())
        .collect();
    let y: Vec<u8> = x
        .iter()
        .map(|r| u8::from(r[2] + r[7] / 2.0 + (next() % 8) as f64 > 12.0))
        .collect();
    let fit_allocations = |n_rounds: usize| {
        let mut m = GradientBoosting::new(GradientBoostingParams {
            n_rounds,
            ..GradientBoostingParams::default()
        });
        let before = allocations();
        m.fit(&x, &y);
        assert_eq!(m.n_trees(), n_rounds);
        allocations() - before
    };
    let (short, long) = (fit_allocations(50), fit_allocations(100));
    let spent = long - short;
    assert!(
        spent <= 50 * 8,
        "rounds 51-100 of a fit allocated {spent}× ({} a round; 50 rounds {short}, 100 rounds {long})",
        spent as f64 / 50.0
    );
}
