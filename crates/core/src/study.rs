//! The study driver: simulate the fleet through its monitored windows
//! under live collection, then assemble the measurement database.
//!
//! The simulate→collect→assemble pipeline is parallel end to end (see
//! ARCHITECTURE.md): devices run as independent *lanes*, each with its own
//! driver RNG stream, snapshot collector and upload buffer. Cross-lane
//! state is either sharded (the one [`racket_collect::ShardedIngest`] and
//! the [`racket_collect::ProtocolCore`] in front of it, on every path),
//! commutative (server stats counters), or merged serially in lane order
//! (review posts) — so the output is a pure function of the
//! configuration, never of the worker-thread count.

use racket_agents::{
    apply_action_collecting, expand_directives, stream_seed, Action, Fleet, FleetConfig,
    LaneScratch, TimelineAction,
};
use racket_campaign::{detect_with_text, CampaignReport, CampaignSketch, DetectorConfig};
use racket_collect::wire::Message;
use racket_collect::{
    coalesce_installs, AsyncCollectServer, AsyncServerConfig, CandidateInstall, CollectorConfig,
    ColumnarSnapshots, DataBuffer, FaultPlan, IngestScratch, ProtocolCore, ShardedIngest,
    SnapshotBatch, SnapshotCollector, WireLane,
};
use racket_features::DeviceObservation;
use racket_obs::{LocalHistogram, Registry};
use racket_playstore::crawler::ReviewCrawler;
use racket_types::metrics::keys;
use racket_types::{AppId, Cohort, Persona, Review, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Salt mixed into the study seed before deriving per-device driver RNG
/// streams, so a fleet generated and driven from the same numeric seed
/// (e.g. 2021/2021 at paper scale) does not replay the history streams.
const DRIVER_STREAM_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Salt for deriving per-lane fault-injection RNG streams on chaos runs,
/// kept disjoint from the driver streams so enabling faults perturbs the
/// network and nothing else.
const FAULT_STREAM_SALT: u64 = 0x243F_6A88_85A3_08D3;

/// How snapshots travel from collectors to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionPath {
    /// In-process ingestion (fast; the default for large fleets): device
    /// lanes ingest concurrently through the sharded store. The snapshots
    /// and aggregation logic are identical to the wire path — only the
    /// framing/transport hop is skipped.
    Direct,
    /// Full protocol: snapshots → data buffer (rotation + LZSS) → framed
    /// upload over an in-memory transport → server decode → hash ack →
    /// buffer deletion. Exercises every §3 component; used by tests and
    /// the protocol-heavy experiments.
    Wire,
    /// Full protocol through the asynchronous collection plane: every
    /// device lane holds a live connection to an
    /// [`racket_collect::AsyncCollectServer`], whose reactor workers
    /// multiplex the whole fleet with bounded per-connection queues and
    /// load-shedding admission control (ARCHITECTURE.md §8). Wire-v2
    /// semantics are identical to [`CollectionPath::Wire`] — the study
    /// data output is byte-for-byte the same; only throughput/shed
    /// observability differs.
    AsyncWire,
}

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Fleet composition and timing.
    pub fleet: FleetConfig,
    /// Collector cadences. The paper's 5 s / 120 s are the default; large
    /// sweeps may thin the fast cadence — rate features scale uniformly.
    pub collector: CollectorConfig,
    /// Snapshot delivery path.
    pub path: CollectionPath,
    /// Driver RNG seed (behaviour replay).
    pub seed: u64,
    /// Transport fault plan for chaos runs ([`FaultPlan::none`] for a
    /// clean link). Wire paths only (`Wire` and `AsyncWire`); each device
    /// lane gets an independent fault stream derived from
    /// [`StudyConfig::seed`]. By the idempotency
    /// contract (PROTOCOL.md), the study's data output is identical for
    /// every plan the retry budget survives — only the fault/retry metrics
    /// differ.
    pub faults: FaultPlan,
}

impl StudyConfig {
    /// Small, fast configuration for tests: a 60-device fleet with a
    /// thinned (60 s) fast cadence over the full wire path.
    pub fn test_scale() -> Self {
        StudyConfig {
            fleet: FleetConfig::test_scale(),
            collector: CollectorConfig {
                fast_period_secs: 60,
                slow_period_secs: 120,
                collect_reviews: false,
            },
            path: CollectionPath::Wire,
            seed: 11,
            faults: FaultPlan::none(),
        }
    }

    /// Paper-scale configuration: 803 devices, thinned fast cadence
    /// (30 s) to keep a full run in tens of seconds, direct ingestion.
    pub fn paper_scale() -> Self {
        StudyConfig {
            fleet: FleetConfig::paper_scale(),
            collector: CollectorConfig {
                fast_period_secs: 30,
                slow_period_secs: 120,
                collect_reviews: false,
            },
            path: CollectionPath::Direct,
            seed: 2021,
            faults: FaultPlan::none(),
        }
    }
}

/// Per-device ground truth retained for evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruth {
    /// The device's persona.
    pub persona: Persona,
}

/// Everything the study produces.
#[derive(Debug)]
pub struct StudyOutput {
    /// One joined observation per physical device, in fleet order: the
    /// one input of `racket_features::app_features` / `device_features`,
    /// which every dataset and scoring path derives its vectors from
    /// (ARCHITECTURE.md §7).
    pub observations: Vec<DeviceObservation>,
    /// Ground truth aligned with `observations`.
    pub truth: Vec<GroundTruth>,
    /// The columnar (struct-of-arrays) projection of the ingested records:
    /// their install-event and review families, built from the canonical
    /// sorted record vector at assemble time (ARCHITECTURE.md §9). The
    /// batch campaign and text rebuilds scan it; everything else reads
    /// the rows (`observations[i].record`).
    pub columnar: ColumnarSnapshots,
    /// The fleet (catalog, store, directory, VirusTotal) post-run.
    pub fleet: Fleet,
    /// Crawler statistics: total reviews collected live.
    pub reviews_crawled: usize,
    /// Server ingestion statistics.
    pub server_stats: racket_collect::server::ServerStats,
    /// Number of physical devices recovered by fingerprint coalescing.
    pub coalesced_devices: usize,
    /// Coordinated-campaign detection report, computed *incrementally*:
    /// the detector runs over the lockstep sketches ingest folded into
    /// each record, with no re-scan of the event vectors
    /// (ARCHITECTURE.md §10). `racketstore::campaign::batch_report`
    /// recomputes the same report from the columnar install-event family;
    /// the equivalence suite pins them byte-identical. Excluded from
    /// output fingerprints (like `obs`, it is a derived analysis, not
    /// collected data).
    pub campaigns: CampaignReport,
    /// The run's private observability registry: every stage span
    /// (`span.fleet_gen`, `span.simulate/day`, …), fault/retry/ingest
    /// counter and shard-occupancy gauge, read by the [`keys`] names. Its
    /// timings are the only thread-count-dependent part of the output.
    /// Private per run — never the process-global registry — so
    /// concurrent studies (e.g. the test suite) cannot pollute each
    /// other's metrics. Excluded from output fingerprints; downstream
    /// stages (scoring, the batch campaign and text rebuilds) keep
    /// recording into it.
    pub obs: Registry,
}

impl StudyOutput {
    /// Observations of one cohort (with their indexes).
    pub fn cohort(&self, cohort: Cohort) -> impl Iterator<Item = &DeviceObservation> {
        self.observations
            .iter()
            .zip(&self.truth)
            .filter(move |(_, t)| t.persona.cohort() == cohort)
            .map(|(o, _)| o)
    }
}

/// One device's lane through the study: the device plus all per-device
/// driver state, mutated on a worker thread without touching other lanes.
struct DeviceLane {
    dev: racket_agents::StudyDevice,
    collector: SnapshotCollector,
    buffer: DataBuffer,
    /// Reusable per-lane planning buffers and incremental app indexes:
    /// steady-state lane-days allocate nothing (ARCHITECTURE.md §12).
    scratch: LaneScratch,
    /// Pooled snapshot batch the collector polls into; cleared (buffers
    /// recycled) before every poll.
    batch: SnapshotBatch,
    /// The device's campaign directives expanded to timeline actions and
    /// stably sorted by time at lane setup; `directive_cursor` slices one
    /// day at a time instead of re-scanning the directive list daily.
    directive_plan: Vec<TimelineAction>,
    directive_cursor: usize,
    /// Wire-path protocol session: a fault-injected loopback link (sync
    /// wire) or a live connection into the async collection plane, plus
    /// the sequence-checked codec and retry/backoff state machine.
    wire: Option<WireLane>,
    /// Per-lane driver RNG stream (seeded from the study seed + lane index).
    rng: StdRng,
    /// Compressed bytes this lane uploaded over the wire path,
    /// retransmissions included.
    bytes_compressed: u64,
    /// Per-lane shard of the `simulate/deliver` latency histogram:
    /// recorded without synchronization on the worker thread, merged into
    /// the study registry when the lane retires (merge is commutative, so
    /// retirement order never shows in the totals).
    deliver_hist: LocalHistogram,
}

/// The study runner.
pub struct Study {
    config: StudyConfig,
}

impl Study {
    /// Create a runner.
    pub fn new(config: StudyConfig) -> Self {
        Study { config }
    }

    /// Run the complete study.
    pub fn run(&self) -> StudyOutput {
        let config = &self.config;
        // Every stage records into this run's private registry, which the
        // output carries as `obs`.
        let obs = Registry::new();
        obs.gauge_set(keys::THREADS, rayon::current_num_threads() as u64);

        let mut fleet = {
            let _span = obs.span(keys::SPAN_FLEET_GEN);
            Fleet::generate(config.fleet.clone())
        };

        let simulate_span = obs.span(keys::SPAN_SIMULATE);
        // One record store and one protocol core in front of it, whatever
        // the path: Direct lanes fold into the store themselves, loopback
        // lanes step their server half against the core inline, and the
        // async plane's reactor workers do the same from their own
        // threads. The worker count never shows in the data output
        // (ARCHITECTURE.md §8), so the default topology is always safe here.
        let store = Arc::new(ShardedIngest::for_current_threads());
        let core = Arc::new(ProtocolCore::new(
            fleet.devices.iter().map(|d| d.participant),
            Arc::clone(&store),
        ));
        let async_plane = (config.path == CollectionPath::AsyncWire).then(|| {
            AsyncCollectServer::start_with(Arc::clone(&core), AsyncServerConfig::default())
        });
        let mut crawler = ReviewCrawler::new();

        // Sign in + per-device lane state. Sign-ins are serial (one frame
        // per device); the simulation loop below is where the time goes.
        let catalog = &fleet.catalog;
        // Review-text studies report review events in slow snapshots and
        // give campaign directives their organizer templates; both are
        // keyed (RNG-free), so text-off lanes are byte-identical.
        let collect_reviews = config.collector.collect_reviews || config.fleet.review_text;
        let textgen = config
            .fleet
            .review_text
            .then(|| racket_agents::TextGen::new(config.fleet.seed));
        let mut lanes: Vec<DeviceLane> = fleet
            .devices
            .drain(..)
            .enumerate()
            .map(|(i, d)| {
                // Uptime thins the effective cadence: a device reporting
                // half the day yields half the snapshots per day.
                let uptime = d.agent.profile.uptime.clamp(0.05, 1.0);
                let cfg = CollectorConfig {
                    fast_period_secs: ((config.collector.fast_period_secs as f64 / uptime).round()
                        as u64)
                        .max(1),
                    slow_period_secs: ((config.collector.slow_period_secs as f64 / uptime).round()
                        as u64)
                        .max(1),
                    collect_reviews,
                };
                let collector = SnapshotCollector::new(cfg, d.install_id, d.participant);
                let lane_seed = stream_seed(config.seed ^ FAULT_STREAM_SALT, i as u64);
                let wire = match config.path {
                    CollectionPath::Wire => Some(WireLane::new(
                        d.install_id,
                        d.participant,
                        config.faults,
                        lane_seed,
                        Arc::clone(&core),
                    )),
                    // Same per-lane fault stream as the sync path: the
                    // connection's two fault injectors are seeded exactly
                    // as a loopback lane's would be, so a chaos plan
                    // perturbs both paths identically.
                    CollectionPath::AsyncWire => {
                        let srv = async_plane.as_ref().expect("async plane is running");
                        Some(WireLane::new_async(
                            d.install_id,
                            d.participant,
                            lane_seed,
                            srv.connect(config.faults, lane_seed),
                        ))
                    }
                    CollectionPath::Direct => None,
                };
                // Seed the lane's incremental app indexes from the
                // post-history device state and pre-expand its campaign
                // directives into a time-sorted plan (both RNG-free).
                let mut scratch = LaneScratch::new();
                scratch.seed_indexes(&d.device, catalog, d.persona());
                let directive_plan =
                    expand_directives(&d.directives, d.agent.gmail_identities(), textgen.as_ref());
                DeviceLane {
                    dev: d,
                    collector,
                    buffer: DataBuffer::new(),
                    scratch,
                    batch: SnapshotBatch::new(),
                    directive_plan,
                    directive_cursor: 0,
                    wire,
                    rng: StdRng::seed_from_u64(stream_seed(
                        config.seed ^ DRIVER_STREAM_SALT,
                        i as u64,
                    )),
                    bytes_compressed: 0,
                    deliver_hist: LocalHistogram::new(),
                }
            })
            .collect();

        {
            let _span = obs.span("simulate/sign_in");
            for lane in &mut lanes {
                let accepted = match &mut lane.wire {
                    Some(wire) => wire.sign_in().expect("sign-in retry budget exhausted"),
                    None => {
                        let sign_in = Message::SignIn {
                            participant: lane.dev.participant,
                            install: lane.dev.install_id,
                        };
                        core.handle(sign_in, &mut IngestScratch::new())
                            == Some(Message::SignInAck { accepted: true })
                    }
                };
                assert!(accepted, "study participants are registered");
            }
        }

        // ---- main loop: one study day at a time, all device lanes in ------
        // ---- parallel, reviews merged serially in lane order --------------
        let study_start = config.fleet.study_start();
        let horizon = config.fleet.horizon();
        let total_days = config.fleet.max_study_days;
        // Cross-lane crawl set, maintained incrementally: how many lanes
        // currently have each app installed. Seeded from the post-history
        // fleet, then folded forward from each day's install/uninstall
        // deltas (a commutative count merge, applied serially in lane
        // order like the reviews). Membership — and therefore the crawl —
        // is identical to the per-crawl cross-lane rebuild it replaces;
        // `crawl_all` is order-insensitive (per-app cursor state only).
        let mut crawl_counts: BTreeMap<AppId, u32> = BTreeMap::new();
        for lane in &lanes {
            for info in lane.dev.device.installed_apps() {
                *crawl_counts.entry(info.app).or_insert(0) += 1;
            }
        }
        for day in 0..total_days {
            let _day_span = obs.span("simulate/day");
            let day_start = study_start + SimDuration::from_days(day);
            lanes.par_iter_mut().for_each(|lane| {
                // Lane spans run on rayon workers; the slash path (not
                // any thread-local stack) is what nests them under the
                // day in the timing tree.
                let _lane_span = obs.span("simulate/day/lane");
                Self::run_lane_day(lane, catalog, day_start, horizon, &store);
            });
            // Reviews post serially in lane order: the store's pagination
            // (and therefore the crawler) sees one canonical posting order.
            // The same pass folds each lane's install/uninstall deltas
            // into the crawl-set counts.
            for lane in &mut lanes {
                for review in lane.scratch.reviews.drain(..) {
                    fleet.store.post(review);
                }
                for &(app, installed) in &lane.scratch.installed_deltas {
                    if installed {
                        *crawl_counts.entry(app).or_insert(0) += 1;
                    } else if let Some(n) = crawl_counts.get_mut(&app) {
                        *n -= 1;
                        if *n == 0 {
                            crawl_counts.remove(&app);
                        }
                    }
                }
            }

            // 12-hourly review crawl over apps installed on participant
            // devices (§5); we run it at day granularity against both
            // half-day marks.
            for half in 0..2 {
                let t = day_start + SimDuration::from_hours(12 * half);
                if crawler.is_due(t) {
                    crawler.crawl_all(&fleet.store, crawl_counts.keys().copied(), t);
                }
            }
        }

        // Final buffer flush (wire path only has residue in buffers). Also
        // the resume point for any file whose retry budget ran out during
        // the day loop: keep flushing until the lane drains (bounded — a
        // fault plan the budget cannot beat would be a test bug, so cap
        // the rounds and let the exhaustion counter surface it). Lanes
        // flush in parallel like a study day: all of it is per-install
        // state plus the core, and no reviews are posted here.
        {
            let _span = obs.span("simulate/flush");
            lanes.par_iter_mut().for_each(|lane| {
                lane.buffer.flush();
                if let Some(wire) = lane.wire.as_mut() {
                    for _ in 0..8 {
                        lane.bytes_compressed += wire.upload_pending(&mut lane.buffer);
                        if lane.buffer.pending_count() == 0 {
                            break;
                        }
                    }
                }
            });
        }
        // Lane retirement: chaos/retry counters and the per-lane deliver
        // histogram shards fold into the registry. Everything here is a
        // commutative add, so lane order cannot show in the totals.
        let deliver_hist = obs.histogram("span.simulate/deliver");
        let serialize_hist = obs.histogram("span.simulate/deliver/serialize");
        let compress_hist = obs.histogram("span.simulate/deliver/compress");
        let hash_hist = obs.histogram("span.simulate/deliver/hash");
        let frame_hist = obs.histogram("span.simulate/deliver/frame");
        for lane in &lanes {
            if let Some(wire) = &lane.wire {
                wire.stats().record_to(&obs);
                wire.fault_stats().record_to(&obs);
                // Wire-path kernel shards: ack-hash verification and frame
                // encoding live on the lane.
                hash_hist.merge_local(&wire.timers.hash);
                frame_hist.merge_local(&wire.timers.frame);
            }
            // Buffer-side kernel shards: snapshot serialization and LZSS
            // compression (recorded on wire lanes only: a Direct lane
            // never pushes into its buffer, so its shards stay empty).
            serialize_hist.merge_local(&lane.buffer.timers.serialize);
            compress_hist.merge_local(&lane.buffer.timers.compress);
            obs.add(keys::BYTES_COMPRESSED, lane.bytes_compressed);
            deliver_hist.merge_local(&lane.deliver_hist);
        }

        // Devices return to the fleet in lane (= fleet) order.
        fleet.devices = lanes.into_iter().map(|l| l.dev).collect();

        // Async-plane teardown: stop the reactor workers (their reports —
        // shed/stall/queue-depth counters and server spans — land in the
        // registry). Every lane has fully drained by now, so the workers'
        // shutdown sweep only flushes queued duplicate retransmissions,
        // which the core's dedup absorbs.
        if let Some(plane) = async_plane {
            let _span = obs.span("simulate/async_shutdown");
            plane.shutdown(&obs);
        }
        let server_stats = core.stats();
        server_stats.record_to(&obs);
        drop(core);
        let store = Arc::try_unwrap(store)
            .expect("workers joined and the core dropped; the driver holds the last reference");
        store.record_occupancy_to(&obs);
        drop(simulate_span);

        // ---- assemble the measurement database ----------------------------
        let assemble_span = obs.span(keys::SPAN_ASSEMBLE);
        // Canonical record order: sorted by install ID (HashMap iteration
        // order must never reach coalescing, which is order-sensitive).
        let records = store.into_records();
        let coalesced_devices = {
            let _span = obs.span("assemble/coalesce");
            let candidates: Vec<CandidateInstall> =
                records.iter().map(CandidateInstall::from_record).collect();
            coalesce_installs(candidates).len()
        };

        // Columnar projection: records are in canonical sorted order here,
        // so the dictionaries assign the same codes on every run.
        let columnar = {
            let _span = obs.span(keys::SPAN_COLUMNARIZE);
            ColumnarSnapshots::from_records(&records)
        };

        // Each device takes ownership of its record (devices that never
        // snapshotted have none to join), in fleet order.
        let mut by_install: HashMap<_, _> =
            records.into_iter().map(|r| (r.install_id, r)).collect();
        let paired: Vec<_> = fleet
            .devices
            .iter()
            .filter_map(|dev| Some((dev, by_install.remove(&dev.install_id)?)))
            .collect();

        // Per-device joins (Google-ID crawl, review join, VirusTotal) are
        // independent — one observation per device, built in parallel.
        let join_span = obs.span("assemble/join");
        let joined: Vec<(DeviceObservation, GroundTruth)> = paired
            .into_par_iter()
            .map(|(dev, record)| {
                // Google-ID crawl: resolve every Gmail account on the device.
                let google_ids: Vec<_> = record
                    .accounts
                    .iter()
                    .filter(|a| a.service.is_gmail())
                    .filter_map(|a| fleet.directory.lookup(a.id))
                    .collect();
                // Review join: everything those IDs ever posted (the
                // 217k-review account crawl of §5), grouped by app.
                let mut reviews_by_app: HashMap<AppId, Vec<Review>> = HashMap::new();
                for &gid in &google_ids {
                    for r in fleet.store.reviews_by(gid) {
                        reviews_by_app.entry(r.app).or_default().push(r.clone());
                    }
                }
                // VirusTotal reports for every app ever observed installed.
                let vt_flags: HashMap<AppId, Option<u8>> = record
                    .apps
                    .values()
                    .map(|info| {
                        let report = fleet.virustotal.query(info.apk_hash);
                        (info.app, report.map(|r| r.flags))
                    })
                    .collect();

                let observation = DeviceObservation {
                    record,
                    monitoring: dev.monitoring,
                    google_ids,
                    reviews_by_app,
                    vt_flags,
                };
                (
                    observation,
                    GroundTruth {
                        persona: dev.persona(),
                    },
                )
            })
            .collect();
        drop(join_span);
        let (observations, truth): (Vec<_>, Vec<_>) = joined.into_iter().unzip();
        drop(assemble_span);

        // Incremental campaign detection: the per-install lockstep
        // sketches were folded at ingest (StreamAggregates::note_install),
        // so the detector reads them straight off the records — no event
        // re-scan. The text sketches folded from reported reviews
        // (StreamAggregates::note_reviews) ride along as the second
        // candidate source; with review collection off every text sketch
        // is empty and the slice stays empty, so the detector runs the
        // event-only path bit-for-bit. The batch path
        // (`crate::campaign::batch_report`) rebuilds the same sketches
        // from the columnar families; both feed the identical
        // `detect_with_text` kernel.
        let campaigns = {
            let _span = obs.span(keys::SPAN_CAMPAIGN_INCREMENTAL);
            let inputs: Vec<(racket_types::InstallId, &CampaignSketch)> = observations
                .iter()
                .map(|o| (o.record.install_id, o.record.stream.campaign()))
                .collect();
            let texts: Vec<(racket_types::InstallId, &racket_text::TextSketch)> = observations
                .iter()
                .filter(|o| !o.record.stream.text().is_empty())
                .map(|o| (o.record.install_id, o.record.stream.text()))
                .collect();
            detect_with_text(&inputs, &texts, &DetectorConfig::default(), Some(&obs))
        };

        StudyOutput {
            observations,
            truth,
            columnar,
            campaigns,
            reviews_crawled: crawler.total_collected(),
            server_stats,
            coalesced_devices,
            fleet,
            obs,
        }
    }

    /// Drive one device lane through one study day: plan, sample snapshots
    /// at every action boundary, deliver them, apply the actions. The
    /// day's reviews land in `lane.scratch.reviews` and its crawl-set
    /// membership deltas in `lane.scratch.installed_deltas`; the caller
    /// drains both serially, in lane order.
    fn run_lane_day(
        lane: &mut DeviceLane,
        catalog: &racket_playstore::AppCatalog,
        day_start: SimTime,
        horizon: SimTime,
        store: &ShardedIngest,
    ) {
        lane.scratch.begin_day();
        if !lane.dev.monitoring.contains(day_start) {
            return;
        }
        let persona = lane.dev.persona();
        lane.dev.agent.plan_day_into(
            &lane.dev.device,
            catalog,
            day_start,
            horizon,
            &mut lane.rng,
            &mut lane.scratch,
        );
        // Merge campaign jobs due inside this planning day: a cursor over
        // the pre-expanded, time-sorted directive plan (built at lane
        // setup) replaces the old scan of every directive every day.
        // Directives are precomputed on the campaign RNG stream (never
        // the lane stream), so injection shifts no organic draw; the
        // stable sort keeps the organic order on time ties, with
        // directives after — and within the injected slice, time ties
        // keep directive order, exactly as the per-day scan produced.
        if !lane.directive_plan.is_empty() {
            let plan_end = day_start + SimDuration::from_days(1);
            while lane.directive_cursor < lane.directive_plan.len()
                && lane.directive_plan[lane.directive_cursor].time < day_start
            {
                lane.directive_cursor += 1;
            }
            let mut j = lane.directive_cursor;
            while j < lane.directive_plan.len() && lane.directive_plan[j].time < plan_end {
                lane.scratch.actions.push(lane.directive_plan[j].clone());
                j += 1;
            }
            if j > lane.directive_cursor {
                lane.directive_cursor = j;
                lane.scratch.actions.sort_by_key(|ta| ta.time);
            }
        }
        let day_end = (day_start + SimDuration::from_days(1)).min(lane.dev.monitoring.end);
        // The action list is moved out for the loop (deliver/apply need
        // the rest of the lane mutably) and moved back afterwards so its
        // capacity is reused tomorrow.
        let actions = std::mem::take(&mut lane.scratch.actions);
        for ta in &actions {
            if ta.time >= day_end {
                continue;
            }
            // Sample everything due before the action, then apply.
            lane.batch.clear();
            lane.collector
                .poll_into(&lane.dev.device, ta.time, &mut lane.batch);
            Self::deliver(lane, store);
            // Install/uninstall actions feed the incremental indexes and
            // the crawl-set deltas — guarded on the device's pre-action
            // state, so a directive re-install or a no-op uninstall
            // changes neither membership count.
            match &ta.action {
                Action::Install { app } => {
                    let newly = !lane.dev.device.is_installed(*app);
                    apply_action_collecting(
                        &mut lane.dev.device,
                        &mut lane.scratch.reviews,
                        catalog,
                        ta,
                        &mut lane.rng,
                    );
                    if newly {
                        lane.scratch.installed_deltas.push((*app, true));
                    }
                    lane.scratch.note_install(*app, catalog, persona);
                }
                Action::Uninstall { app } => {
                    let was_installed = lane.dev.device.is_installed(*app);
                    apply_action_collecting(
                        &mut lane.dev.device,
                        &mut lane.scratch.reviews,
                        catalog,
                        ta,
                        &mut lane.rng,
                    );
                    if was_installed {
                        lane.scratch.installed_deltas.push((*app, false));
                        lane.scratch.note_uninstall(*app);
                    }
                }
                _ => {
                    apply_action_collecting(
                        &mut lane.dev.device,
                        &mut lane.scratch.reviews,
                        catalog,
                        ta,
                        &mut lane.rng,
                    );
                }
            }
        }
        // Close out the day.
        let last_tick = SimTime::from_secs(day_end.as_secs().saturating_sub(1));
        lane.batch.clear();
        lane.collector
            .poll_into(&lane.dev.device, last_tick, &mut lane.batch);
        Self::deliver(lane, store);
        lane.scratch.actions = actions;
    }

    /// Deliver the lane's batched snapshots along the configured path.
    ///
    /// A lane without a wire session (Direct) folds straight into the
    /// sharded store; one with a session goes through its buffer and
    /// transport into the core. Both are concurrent across lanes —
    /// per-install aggregation is disjoint, so lane interleaving cannot
    /// change the result.
    fn deliver(lane: &mut DeviceLane, store: &ShardedIngest) {
        // Timed into the lane's local histogram shard, not the shared
        // registry: delivery is the per-lane hot path, and a shard costs
        // one unsynchronized array bump per call.
        let start = Instant::now();
        match lane.wire.as_mut() {
            None => store.ingest_batch(lane.batch.snapshots()),
            Some(wire) => {
                for s in lane.batch.snapshots() {
                    lane.buffer.push(s);
                }
                if lane.buffer.pending_count() > 0 {
                    // Upload any rotated files through the retry/backoff
                    // state machine. Files whose retry budget runs out stay
                    // queued and resume on the next delivery tick or the
                    // final flush; replays are absorbed by the core's dedup.
                    lane.bytes_compressed += wire.upload_pending(&mut lane.buffer);
                }
            }
        }
        lane.deliver_hist.record(start.elapsed().as_nanos() as u64);
    }
}

/// The one `StudyConfig::test_scale()` study the crate's unit tests share:
/// run once per test binary, on first use.
#[cfg(test)]
pub(crate) fn test_output() -> &'static StudyOutput {
    static OUT: std::sync::OnceLock<StudyOutput> = std::sync::OnceLock::new();
    OUT.get_or_init(|| Study::new(StudyConfig::test_scale()).run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_produces_observations_for_every_device() {
        let out = test_output();
        assert_eq!(out.observations.len(), 60);
        assert_eq!(out.truth.len(), 60);
        assert_eq!(out.cohort(Cohort::Regular).count(), 20);
        assert_eq!(out.cohort(Cohort::Worker).count(), 40);
    }

    #[test]
    fn wire_path_ingests_files_and_snapshots() {
        let out = test_output();
        assert!(out.server_stats.files > 0, "rotated files uploaded");
        assert!(out.server_stats.snapshots > 1000, "snapshots ingested");
        assert_eq!(out.server_stats.bad_uploads, 0);
        assert_eq!(out.server_stats.sign_ins, 60);
    }

    #[test]
    fn observations_have_accounts_and_reviews() {
        let out = test_output();
        let worker_reviews: usize = out.cohort(Cohort::Worker).map(|o| o.total_reviews()).sum();
        let regular_reviews: usize = out.cohort(Cohort::Regular).map(|o| o.total_reviews()).sum();
        assert!(worker_reviews > 20 * regular_reviews.max(1));
        // Every observation saw at least two days of snapshots.
        for o in &out.observations {
            assert!(o.record.active_days() >= 2);
        }
    }

    #[test]
    fn crawler_collected_live_reviews() {
        let out = test_output();
        assert!(out.reviews_crawled > 0);
    }

    #[test]
    fn coalescing_recovers_physical_devices() {
        let out = test_output();
        // One install per device in this scenario.
        assert_eq!(out.coalesced_devices, 60);
    }

    /// Records per ingest shard, from the zero-padded
    /// `ingest.shard_occupancy.*` gauges (gauge-name order is shard order).
    fn shard_occupancy(snap: &racket_obs::RegistrySnapshot) -> Vec<u64> {
        snap.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(keys::SHARD_OCCUPANCY_PREFIX))
            .map(|(_, &v)| v)
            .collect()
    }

    #[test]
    fn wire_path_reports_metrics() {
        let out = test_output();
        let snap = out.obs.snapshot();
        assert_eq!(
            snap.counter(keys::SNAPSHOTS_INGESTED),
            out.server_stats.snapshots
        );
        assert!(
            snap.counter(keys::BYTES_COMPRESSED) > 0,
            "wire path compresses uploads"
        );
        assert_eq!(
            shard_occupancy(&snap).iter().sum::<u64>(),
            60,
            "the wire path folds into the same sharded store"
        );
        assert!(snap.span_secs(keys::SPAN_SIMULATE) > 0.0);
        assert!(snap.gauge(keys::THREADS) >= 1);
    }

    #[test]
    fn clean_wire_run_reports_zero_faults_and_retries() {
        let out = test_output();
        let snap = out.obs.snapshot();
        assert_eq!(racket_types::FaultCounters::from_snapshot(&snap).total(), 0);
        assert!(
            snap.counter(keys::UPLOAD_ATTEMPTS) > 0,
            "exchanges are counted"
        );
        for key in [
            keys::UPLOAD_RETRIES,
            keys::RECONNECTS,
            keys::BACKOFF_MS,
            keys::EXCHANGES_EXHAUSTED,
            keys::STALE_FRAMES,
            keys::DUP_FILES,
        ] {
            assert_eq!(snap.counter(key), 0, "{key}");
        }
        assert_eq!(out.server_stats.dup_files, 0);
    }
}
