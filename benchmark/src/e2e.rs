//! The two whole-pipeline workloads: `Study::run` plus the full analysis
//! chain inside one timed repetition, over `AsyncWire` (`e2e_async`) or
//! `Direct` (`e2e_direct`).

use crate::chain;
use crate::harness::{self, Rep, RunArgs};
use crate::kernels;
use crate::metrics::{Outcome, Values};
use crate::trace::Tracer;
use racket_agents::{CampaignConfig, FleetConfig, PacingStrategy};
use racket_collect::{CollectorConfig, FaultPlan};
use racket_obs::RegistrySnapshot;
use racket_types::metrics::keys;
use racketstore::labeling::LabelingConfig;
use racketstore::measurements::MeasurementReport;
use racketstore::study::{CollectionPath, Study, StudyConfig, StudyOutput};

/// Seed of the generated population. The fleet's *composition* (devices
/// per persona, their histories and uptimes) fixes how much work a run
/// does — across fleet seeds the snapshot count moves by ±10 % and the
/// labeled app set by up to 2×, which would drown every bound — so the
/// population is part of the workload's definition and `--seed` drives
/// everything that happens to it inside the measured window.
pub const FLEET_SEED: u64 = 2021;

/// The study one workload runs, at full or smoke size.
pub fn study_config(path: CollectionPath, seed: u64, smoke: bool) -> (StudyConfig, LabelingConfig) {
    let half_mid = path == CollectionPath::Direct && !smoke;
    let mut fleet = if half_mid {
        // Half the repo's `mid` scale (RACKET_SCALE=mid is 74/134/60): the
        // largest fleet whose repetition leaves room for the five the
        // median needs inside one run.
        FleetConfig {
            n_regular: 37,
            n_organic: 67,
            n_dedicated: 30,
            history_days: 540,
            max_study_days: 10,
            no_android_id_rate: 0.06,
            ..FleetConfig::test_scale()
        }
    } else {
        FleetConfig::test_scale()
    };
    if smoke {
        fleet.history_days = 30;
        fleet.max_study_days = 3;
    }
    fleet.seed = FLEET_SEED;
    fleet.campaigns = CampaignConfig::with(4, PacingStrategy::Stealth);
    fleet.review_text = true;
    let config = StudyConfig {
        fleet,
        collector: CollectorConfig {
            fast_period_secs: 60,
            slow_period_secs: 120,
            collect_reviews: true,
        },
        path,
        seed,
        faults: FaultPlan::none(),
    };
    (config, LabelingConfig::test_scale())
}

/// What a study collected, reduced to what repetitions are compared on.
#[derive(PartialEq)]
struct Collected {
    fingerprint: [u8; 32],
    snapshots: u64,
}

impl Collected {
    fn of(out: &StudyOutput) -> Collected {
        Collected {
            fingerprint: chain::data_fingerprint(out),
            snapshots: chain::snapshots_in_records(out),
        }
    }
}

/// Run the workload named by `args` (`e2e_async` or `e2e_direct`).
pub fn run(args: &RunArgs, tracer: &Tracer) -> Outcome {
    let path = match args.workload.as_str() {
        "e2e_async" => CollectionPath::AsyncWire,
        _ => CollectionPath::Direct,
    };
    let (config, labeling) = study_config(path, args.seed, args.smoke);
    let mut outcome = Outcome::default();

    // Set-up: one discarded warm-up repetition, and the reference every
    // timed repetition's data is held to. Over the wire that is the same
    // study run over `Direct` — the generator's own snapshot count, with
    // nothing in between to lose or repeat one; on `Direct` itself it is
    // the warm-up's output.
    let reference = harness::repeat_setup(args.smoke, &mut outcome.values, || {
        let warmup = repetition(tracer, &config, &labeling, None, &mut Outcome::default()).1;
        if path == CollectionPath::Direct {
            return warmup;
        }
        let mut direct = config.clone();
        direct.path = CollectionPath::Direct;
        Collected::of(&Study::new(direct).run())
    });

    let reps = harness::run_reps(args, tracer, path == CollectionPath::Direct, || {
        repetition(tracer, &config, &labeling, Some(&reference), &mut outcome).0
    });
    harness::fold_reps(&reps, &mut outcome.values);

    if args.trace && path == CollectionPath::AsyncWire {
        // Source K: the delivery kernels replayed on upload files built
        // from this workload's own fleet.
        let sample = kernels::build_files(&config.fleet, args.seed, config.fleet.n_devices(), 256);
        kernels::replay(&sample, &mut outcome.values);
    }
    outcome
}

/// One repetition: the study, then the whole analysis chain, then the
/// checks against the reference (`None` for the warm-up). Also returns
/// what the study collected.
fn repetition(
    t: &Tracer,
    config: &StudyConfig,
    labeling: &LabelingConfig,
    reference: Option<&Collected>,
    outcome: &mut Outcome,
) -> (Rep, Collected) {
    let mut layers = Values::new();
    let t0 = std::time::Instant::now();
    let (out, _) = t.time("core.study.run", || Study::new(config.clone()).run());
    let service = chain::train_service(t, &out, labeling, true, &mut layers);
    let detected = chain::score_and_detect(t, &out, &service);
    let (report, _) = t.time("core.measurements", || MeasurementReport::compute(&out));
    std::hint::black_box(report);
    // The clock stops before the harness's own checking: `bench.verify_busy_s`
    // reports that cost, and no end-to-end number moves when a check does.
    let wall_s = t0.elapsed().as_secs_f64();
    let snapshots = out.server_stats.snapshots;
    let snap = out.obs.snapshot();
    let (collected, _) = t.time("bench.verify", || {
        detected.verify(&out, outcome);
        let collected = Collected::of(&out);
        if let Some(reference) = reference {
            verify(&out, &snap, &collected, reference, outcome);
        }
        collected
    });

    chain::study_layers(&snap, snapshots, &mut layers);
    let inside_run_s = [
        keys::SPAN_FLEET_GEN,
        keys::SPAN_SIMULATE,
        keys::SPAN_ASSEMBLE,
        keys::SPAN_CAMPAIGN_INCREMENTAL,
    ]
    .iter()
    .map(|phase| snap.span_secs(phase))
    .sum();
    layers.insert("collect.columnar.bytes", out.columnar.column_bytes() as f64);
    let shingles = snap.counter(keys::CAMPAIGN_SHINGLES) as f64;
    let shingle_s = snap.span_secs(keys::SPAN_CAMPAIGN_SHINGLE);
    if shingle_s > 0.0 {
        layers.insert("campaign.sketch.shingles_per_s", shingles / shingle_s);
    }
    let mut extras = Values::new();
    extras.insert("verdict_ms", detected.verdict_s * 1e3);
    extras.insert("snapshots_per_s", snapshots as f64 / wall_s);
    if let Some(&b) = layers.get("wire_bytes_per_snapshot") {
        extras.insert("wire_bytes_per_snapshot", b);
    }
    let rep = Rep {
        wall_s,
        units: snapshots,
        extras,
        layers,
        inside_run_s,
    };
    (rep, collected)
}

/// Exactly-once delivery and a data fingerprint equal to the reference.
fn verify(
    out: &StudyOutput,
    snap: &RegistrySnapshot,
    seen: &Collected,
    reference: &Collected,
    outcome: &mut Outcome,
) {
    let st = &out.server_stats;
    let exhausted = snap.counter(keys::EXCHANGES_EXHAUSTED);
    let shed = snap.counter(keys::SERVER_LOAD_SHED);
    outcome.ops(st.files, exhausted + st.bad_uploads + shed, "upload files");
    outcome.check(
        st.snapshots == reference.snapshots && seen.snapshots == reference.snapshots,
        "snapshots ingested == the generator's count, exactly once",
    );
    outcome.check(
        seen.fingerprint == reference.fingerprint,
        "data fingerprint identical across repetitions and delivery paths",
    );
}
