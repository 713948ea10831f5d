//! Fleet generation: the study population in one value.
//!
//! [`Fleet::generate`] builds the app catalog, the Play-store review state
//! (fleet history plus background volume), the Google-ID directory, the
//! VirusTotal service, and one [`StudyDevice`] per participant device with
//! its persona, hardware model, monitoring window and stateful agent.
//!
//! Default composition mirrors §5: 223 regular devices and 580 worker
//! devices, of which ~69% are organic and ~31% dedicated (§8.2's 123/55
//! split of the analyzable workers). Monitoring windows are heterogeneous
//! (participants kept the app "at least two days", §4) and a configurable
//! fraction of devices reports no Android ID (Appendix A).

use crate::agent::{DeviceAgent, IdAllocator};
use crate::campaign::{CampaignConfig, CampaignDirective, CampaignPlan, CampaignSpec};
use crate::params::PersonaParams;
use crate::textgen::fmix64;
use racket_device::Device;
use racket_playstore::{
    catalog::CatalogConfig, AppCatalog, GoogleIdDirectory, ReviewStore, VirusTotalSim,
};
use racket_types::{AndroidId, InstallId, ParticipantId, Persona, SimTime, TimeInterval};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Account/Google-ID range reserved per device under parallel generation:
/// device *i* allocates IDs in `(i * STRIDE, (i + 1) * STRIDE]`. Far above
/// any persona's account count, so ranges never collide.
pub(crate) const ID_STRIDE: u64 = 1_000_000;

/// Derive the seed of an independent per-device RNG stream from the fleet
/// master seed (SplitMix64 finalizer over `seed ⊕ f(index)`).
///
/// Each device draws every one of its random decisions from its own stream,
/// so the generated fleet is a pure function of `(master, index)` — the
/// same whether devices are built serially or on any number of worker
/// threads, in any order.
pub fn stream_seed(master: u64, index: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    fmix64(master ^ index.wrapping_add(1).wrapping_mul(GOLDEN))
}

/// Fleet composition and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Regular-user devices.
    pub n_regular: usize,
    /// Organic-worker devices.
    pub n_organic: usize,
    /// Dedicated-worker devices.
    pub n_dedicated: usize,
    /// Pre-study history length in days (install times and most reviews
    /// accumulate here).
    pub history_days: u64,
    /// Maximum monitored window per device, in days; actual windows are
    /// uniform in `[2, max_study_days]`.
    pub max_study_days: u64,
    /// Fraction of devices whose model fails to report `ANDROID_ID`.
    pub no_android_id_rate: f64,
    /// App catalog composition.
    pub catalog: CatalogConfig,
    /// Master RNG seed.
    pub seed: u64,
    /// Optional persona-parameter overrides — the lever for the §9
    /// worker-evasion experiments (longer review delays, fewer accounts,
    /// more app interaction). `None` keeps the calibrated defaults.
    pub overrides: PersonaOverrides,
    /// Coordinated-campaign schedule (§7.3 lockstep ground truth). The
    /// default runs zero campaigns, leaving every campaign-free study
    /// byte-identical to pre-campaign builds.
    pub campaigns: CampaignConfig,
    /// Generate review text for every posted review (ARCHITECTURE.md §13).
    /// Text is keyed on its own stream family
    /// (`TEXT_STREAM_SALT`), never drawn from device
    /// RNGs, so the default `false` keeps every text-off study
    /// byte-identical to pre-text builds.
    pub review_text: bool,
}

/// Optional per-persona parameter replacements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersonaOverrides {
    /// Replacement for [`PersonaParams::regular`].
    pub regular: Option<PersonaParams>,
    /// Replacement for [`PersonaParams::organic_worker`].
    pub organic: Option<PersonaParams>,
    /// Replacement for [`PersonaParams::dedicated_worker`].
    pub dedicated: Option<PersonaParams>,
}

impl PersonaOverrides {
    /// The effective parameters for a persona.
    pub(crate) fn params_for(&self, persona: Persona) -> PersonaParams {
        let slot = match persona {
            Persona::Regular => &self.regular,
            Persona::OrganicWorker => &self.organic,
            Persona::DedicatedWorker => &self.dedicated,
        };
        slot.clone()
            .unwrap_or_else(|| PersonaParams::for_persona(persona))
    }
}

impl FleetConfig {
    /// The paper's population: 223 regular + 580 worker devices (§5), the
    /// workers split ~69%/31% organic/dedicated (§8.2).
    pub fn paper_scale() -> Self {
        FleetConfig {
            n_regular: 223,
            n_organic: 400,
            n_dedicated: 180,
            history_days: 540,
            max_study_days: 12,
            no_android_id_rate: 0.06,
            catalog: CatalogConfig::default(),
            seed: 2021,
            overrides: PersonaOverrides::default(),
            campaigns: CampaignConfig::default(),
            review_text: false,
        }
    }

    /// A small fleet for unit/integration tests (fast to generate).
    pub fn test_scale() -> Self {
        FleetConfig {
            n_regular: 20,
            n_organic: 25,
            n_dedicated: 15,
            history_days: 90,
            max_study_days: 6,
            no_android_id_rate: 0.1,
            catalog: CatalogConfig::default(),
            seed: 7,
            overrides: PersonaOverrides::default(),
            campaigns: CampaignConfig::default(),
            review_text: false,
        }
    }

    /// Total number of devices.
    pub fn n_devices(&self) -> usize {
        self.n_regular + self.n_organic + self.n_dedicated
    }

    /// Study start (history ends here).
    pub fn study_start(&self) -> SimTime {
        SimTime::from_days(self.history_days)
    }

    /// Latest possible study end.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_days(self.history_days + self.max_study_days)
    }
}

/// One participant device with its ground truth and agent.
#[derive(Debug)]
pub struct StudyDevice {
    /// The simulated device.
    pub device: Device,
    /// Its behavioural agent (persona, profile, pending reviews).
    pub agent: DeviceAgent,
    /// Participant code assigned at recruitment.
    pub participant: ParticipantId,
    /// Install ID generated by the RacketStore app instance.
    pub install_id: InstallId,
    /// The monitored window (RacketStore install interval).
    pub monitoring: TimeInterval,
    /// Campaign jobs assigned to this device, sorted by install time
    /// (empty for regular users and non-hired workers).
    pub directives: Vec<CampaignDirective>,
}

impl StudyDevice {
    /// Ground-truth persona.
    pub fn persona(&self) -> Persona {
        self.agent.persona()
    }

    /// Days of monitoring coverage.
    pub fn active_days(&self) -> f64 {
        self.monitoring.duration().as_days()
    }
}

/// The generated study population.
#[derive(Debug)]
pub struct Fleet {
    /// The app catalog.
    pub catalog: AppCatalog,
    /// Play-store review state (history already posted).
    pub store: ReviewStore,
    /// Gmail → Google ID directory.
    pub directory: GoogleIdDirectory,
    /// VirusTotal service.
    pub virustotal: VirusTotalSim,
    /// The participant devices.
    pub devices: Vec<StudyDevice>,
    /// Ground-truth campaign specs (empty unless `config.campaigns`
    /// schedules any).
    pub campaigns: Vec<CampaignSpec>,
    /// The config the fleet was generated from.
    pub config: FleetConfig,
}

impl Fleet {
    /// Generate the full study population. Deterministic in `config.seed`.
    pub fn generate(config: FleetConfig) -> Fleet {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let catalog = AppCatalog::generate(&config.catalog);
        let mut store = ReviewStore::new();
        let mut directory = GoogleIdDirectory::new();

        // Background review volume: popular apps carry store-scale review
        // counts (the §7.2 non-suspicious rule needs ≥ 15,000); the tail
        // and promoted apps far less.
        for (rank, &app) in catalog.consumer_apps().iter().enumerate() {
            let volume = if rank < config.catalog.n_popular {
                // 5M at rank 0 decaying toward ~16k.
                (5_000_000.0 / (rank + 1) as f64).max(16_000.0) as u64
            } else {
                // Long tail: mostly small, but niche apps can still carry
                // store-scale review volume (a regional hit is obscure to
                // workers yet heavily reviewed).
                rng.gen_range(100..40_000)
            };
            store.seed_background(app, volume);
        }
        for &app in catalog.promoted_apps() {
            store.seed_background(app, rng.gen_range(20..2_500));
        }

        // VirusTotal: all catalog hashes known, a slice unavailable
        // (the paper's 12,431-of-18,079 coverage).
        let all_hashes: Vec<_> = catalog.apps().iter().map(|a| a.apk_hash).collect();
        let unavailable: Vec<_> = all_hashes
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        let virustotal = VirusTotalSim::new(all_hashes, catalog.malware_hashes(), unavailable);

        // Devices — built in parallel, one independent RNG stream, ID range
        // and local store/directory per device, then merged serially in
        // device order. Output is a pure function of `config`, never of the
        // worker-thread count (see ARCHITECTURE.md, "Determinism contract").
        let personas: Vec<(usize, Persona)> = std::iter::empty()
            .chain(std::iter::repeat_n(Persona::Regular, config.n_regular))
            .chain(std::iter::repeat_n(
                Persona::OrganicWorker,
                config.n_organic,
            ))
            .chain(std::iter::repeat_n(
                Persona::DedicatedWorker,
                config.n_dedicated,
            ))
            .enumerate()
            .collect();

        let study_start = config.study_start();
        // Per-device build timing goes to the process-default registry
        // (fleet generation has no study registry yet — the study's own
        // fleet_gen span wraps this whole function).
        let obs = racket_obs::global();
        let built: Vec<(StudyDevice, ReviewStore, GoogleIdDirectory)> = personas
            .into_par_iter()
            .map(|(i, persona)| {
                let _span = obs.span("fleet_gen/device");
                Self::build_device(&config, &catalog, study_start, i, persona)
            })
            .collect();

        let mut devices = Vec::with_capacity(built.len());
        for (dev, local_store, local_directory) in built {
            store.absorb(local_store);
            directory.absorb(local_directory);
            devices.push(dev);
        }

        // Campaign schedule: drawn on its own salted stream family, then
        // attached to the hired devices after the parallel build (the plan
        // never touches a device RNG, so device streams stay byte-identical
        // with campaigns on or off).
        let plan = CampaignPlan::generate(&config, &catalog);
        for (dev, jobs) in devices.iter_mut().zip(plan.directives) {
            dev.directives = jobs;
        }

        Fleet {
            catalog,
            store,
            directory,
            virustotal,
            devices,
            campaigns: plan.specs,
            config,
        }
    }

    /// Build device `i` of the fleet on its own RNG stream, returning the
    /// device together with the review-store and directory state its
    /// history produced (merged into the fleet stores by the caller).
    fn build_device(
        config: &FleetConfig,
        catalog: &AppCatalog,
        study_start: SimTime,
        i: usize,
        persona: Persona,
    ) -> (StudyDevice, ReviewStore, GoogleIdDirectory) {
        let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, i as u64));
        let mut store = ReviewStore::new();
        let mut directory = GoogleIdDirectory::new();
        let mut ids = IdAllocator::with_base(i as u64 * ID_STRIDE);

        // Appendix A: some models report no ANDROID_ID.
        let reports_android_id = !rng.gen_bool(config.no_android_id_rate);
        let mut device = Device::new(reports_android_id.then_some(AndroidId(0x1000 + i as u64)));

        let mut agent = DeviceAgent::with_params(config.overrides.params_for(persona), &mut rng);
        if config.review_text {
            // Pure configuration: no RNG draw, so the device stream below
            // is byte-identical with text on or off.
            agent.set_textgen(Some(crate::textgen::TextGen::new(config.seed)));
        }
        // Device-specific monitored window: at least 2 days (§4).
        let days = rng.gen_range(2..=config.max_study_days.max(2));
        let monitoring = TimeInterval::new(
            study_start,
            study_start + racket_types::SimDuration::from_days(days),
        );
        agent.setup_history(
            &mut device,
            catalog,
            &mut store,
            &mut directory,
            &mut ids,
            study_start,
            monitoring.end,
            &mut rng,
        );

        let dev = StudyDevice {
            device,
            agent,
            participant: ParticipantId(100_000 + i as u32),
            install_id: InstallId(1_000_000_000 + i as u64),
            monitoring,
            directives: Vec::new(),
        };
        (dev, store, directory)
    }

    /// Devices of one cohort.
    pub fn cohort_devices(
        &self,
        cohort: racket_types::Cohort,
    ) -> impl Iterator<Item = &StudyDevice> {
        self.devices
            .iter()
            .filter(move |d| d.persona().cohort() == cohort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::Cohort;

    #[test]
    fn test_scale_generates_expected_population() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        assert_eq!(fleet.devices.len(), 60);
        assert_eq!(fleet.cohort_devices(Cohort::Regular).count(), 20);
        assert_eq!(fleet.cohort_devices(Cohort::Worker).count(), 40);
    }

    #[test]
    fn monitoring_windows_at_least_two_days() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        for d in &fleet.devices {
            assert!(d.active_days() >= 2.0);
            assert_eq!(d.monitoring.start, fleet.config.study_start());
            assert!(d.monitoring.end <= fleet.config.horizon());
        }
    }

    #[test]
    fn participant_and_install_ids_valid_and_unique() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        let mut participants: Vec<_> = fleet.devices.iter().map(|d| d.participant).collect();
        participants.sort();
        participants.dedup();
        assert_eq!(participants.len(), fleet.devices.len());
        for d in &fleet.devices {
            assert!(d.participant.is_valid());
            assert!(d.install_id.is_valid());
        }
    }

    #[test]
    fn some_devices_lack_android_id() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        let missing = fleet
            .devices
            .iter()
            .filter(|d| d.device.android_id().is_none())
            .count();
        assert!(missing >= 1, "no_android_id_rate should bite at 10% of 60");
        assert!(missing < fleet.devices.len() / 2);
    }

    #[test]
    fn store_has_history_reviews_and_background_volume() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        assert!(
            fleet.store.total_reviews() > 100,
            "workers reviewed in history"
        );
        // The most popular app carries store-scale volume.
        let popular = fleet.catalog.consumer_apps()[0];
        assert!(fleet.store.public_review_count(popular) >= 15_000);
    }

    #[test]
    fn account_ids_unique_across_devices() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        let mut ids: Vec<_> = fleet
            .devices
            .iter()
            .flat_map(|d| d.agent.gmail_identities().iter().map(|(a, _)| *a))
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "per-device ID ranges must not collide");
    }

    #[test]
    fn stream_seeds_distinct() {
        let mut seeds: Vec<u64> = (0..1000).map(|i| stream_seed(2021, i)).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0), "master seed matters");
    }

    #[test]
    fn generation_deterministic() {
        let a = Fleet::generate(FleetConfig::test_scale());
        let b = Fleet::generate(FleetConfig::test_scale());
        assert_eq!(a.store.total_reviews(), b.store.total_reviews());
        for (da, db) in a.devices.iter().zip(&b.devices) {
            assert_eq!(da.device.installed_count(), db.device.installed_count());
            assert_eq!(da.device.accounts().len(), db.device.accounts().len());
        }
    }

    #[test]
    fn workers_have_more_gmail_accounts_on_average() {
        let fleet = Fleet::generate(FleetConfig::test_scale());
        let avg = |cohort: Cohort| {
            let devs: Vec<_> = fleet.cohort_devices(cohort).collect();
            devs.iter()
                .map(|d| d.device.gmail_accounts().count() as f64)
                .sum::<f64>()
                / devs.len() as f64
        };
        assert!(
            avg(Cohort::Worker) > 3.0 * avg(Cohort::Regular),
            "worker {} vs regular {}",
            avg(Cohort::Worker),
            avg(Cohort::Regular)
        );
    }
}
