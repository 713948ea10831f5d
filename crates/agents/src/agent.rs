//! The per-device behavioural agent.
//!
//! A [`DeviceAgent`] owns a sampled [`DeviceProfile`] (the device's latent
//! rates) and produces behaviour in two phases:
//!
//! 1. [`DeviceAgent::setup_history`] — populates the device as it would
//!    look when the study begins: registered accounts, installed apps with
//!    realistic past install times, usage history, force-stopped apps, and
//!    the reviews those installs generated (posted into the Play-store
//!    simulator). Workers additionally have *past jobs*: promoted apps
//!    reviewed from their accounts and since uninstalled — the bulk of the
//!    208.91 average total reviews per worker device (§6.3, Figure 6).
//! 2. [`DeviceAgent::plan_day_into`] — during the monitored window, plans
//!    one day of timestamped actions (installs, uninstalls, opens, stops,
//!    reviews) against the device's *current* state, into a lane's
//!    reused [`crate::lane::LaneScratch`]. Reviews are scheduled
//!    at install time with persona-calibrated delays and fire on the day
//!    they fall due.

use crate::dist::poisson;
use crate::params::PersonaParams;
use racket_playstore::{AppCatalog, GoogleIdDirectory, ReviewStore};
use racket_types::{
    AccountId, AccountService, AppId, GoogleId, PermissionProfile, PermissionSet, Persona, Rating,
    RegisteredAccount, Review, SimDuration, SimTime,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BinaryHeap;

/// Allocates globally unique account / Google IDs across the fleet.
#[derive(Debug, Default, Clone)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// An allocator whose first ID is `base + 1`.
    ///
    /// Parallel fleet generation gives every device a disjoint ID range
    /// (device *i* starts at `i * stride`), so per-device allocators can
    /// run on worker threads without coordination and still produce
    /// fleet-unique IDs.
    pub(crate) fn with_base(base: u64) -> Self {
        IdAllocator { next: base }
    }

    /// Allocate the next (account, google) ID pair.
    pub(crate) fn next_account(&mut self) -> (AccountId, GoogleId) {
        self.next += 1;
        (AccountId(self.next), GoogleId(self.next))
    }
}

/// The latent per-device profile, sampled once from [`PersonaParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Gmail accounts on the device.
    pub n_gmail: u64,
    /// Distinct consumer services with accounts.
    pub n_consumer_services: u64,
    /// Has a DualSpace account.
    pub has_dualspace: bool,
    /// Has a Freelancer account.
    pub has_freelancer: bool,
    /// Apps installed when the study begins.
    pub n_initial_apps: u64,
    /// Mean daily installs.
    pub install_rate: f64,
    /// Mean daily uninstalls.
    pub uninstall_rate: f64,
    /// Mean daily app-open sessions.
    pub open_rate: f64,
    /// Fraction of the day the device reports snapshots.
    pub uptime: f64,
    /// Soft cap on concurrently installed apps — §6.3: "the number of
    /// installations is limited by the device resources". When the device
    /// is over capacity the agent uninstalls the excess, which keeps
    /// installed counts stationary despite heavy churn.
    pub capacity: u64,
}

impl DeviceProfile {
    /// Sample a profile.
    pub fn sample(params: &PersonaParams, rng: &mut impl Rng) -> Self {
        DeviceProfile {
            n_gmail: params.gmail_accounts.sample_count(rng).max(1),
            n_consumer_services: params.consumer_services.sample_count(rng),
            has_dualspace: rng.gen_bool(params.dualspace_prob),
            has_freelancer: rng.gen_bool(params.freelancer_prob),
            n_initial_apps: params.initial_apps.sample_count(rng).max(5),
            install_rate: params.daily_installs.sample(rng),
            uninstall_rate: params.daily_uninstalls.sample(rng),
            open_rate: params.daily_opens.sample(rng),
            uptime: params.uptime_fraction.sample(rng),
            capacity: 0, // filled in by DeviceAgent::new from n_initial_apps
        }
    }
}

/// One planned, timestamped action on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineAction {
    /// When the action happens.
    pub time: SimTime,
    /// What happens.
    pub action: Action,
}

/// The kinds of planned actions.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Install an app from the catalog.
    Install {
        /// The app to install.
        app: AppId,
    },
    /// Uninstall an installed app.
    Uninstall {
        /// The app to remove.
        app: AppId,
    },
    /// Open an app in the foreground.
    Open {
        /// The app to open.
        app: AppId,
        /// Session length in seconds.
        secs: u64,
    },
    /// Force-stop an app.
    Stop {
        /// The app to stop.
        app: AppId,
    },
    /// Post a review from a device account.
    Review {
        /// The reviewed app.
        app: AppId,
        /// The posting account.
        account: AccountId,
        /// Its Google identity (for the store).
        google_id: GoogleId,
        /// The star rating.
        rating: Rating,
        /// The review text (empty when text simulation is off).
        text: String,
    },
    /// Screen goes dark (ends a session).
    ScreenOff,
}

/// A review scheduled for the future (min-heap by time).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingReview {
    time: SimTime,
    app: AppId,
    account: AccountId,
    google_id: GoogleId,
    stars: u8,
    text: String,
}

impl Ord for PendingReview {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on time.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.app.cmp(&self.app))
    }
}

impl PartialOrd for PendingReview {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The stateful behavioural agent of one device.
#[derive(Debug, Clone)]
pub struct DeviceAgent {
    /// Persona parameters (calibrated distributions).
    pub params: PersonaParams,
    /// The sampled latent profile.
    pub profile: DeviceProfile,
    /// Gmail accounts available for reviewing.
    gmail: Vec<(AccountId, GoogleId)>,
    /// Reviews scheduled but not yet posted.
    pending: BinaryHeap<PendingReview>,
    /// Apps this device has already reviewed-or-scheduled, to respect the
    /// one-review-per-(account, app) rule cheaply.
    promoted_done: Vec<AppId>,
    /// Reused working copy of `gmail` for per-job account shuffles, so
    /// scheduling a promo job stops cloning the account list. Holds the
    /// exact bytes the clone held, so the shuffle consumes identical RNG
    /// draws.
    account_scratch: Vec<(AccountId, GoogleId)>,
    /// Review-text generator. `None` (the default) leaves every review
    /// text empty; setting it is pure configuration — text is keyed, never
    /// drawn, so device RNG streams are byte-identical with text on or off.
    textgen: Option<crate::textgen::TextGen>,
}

impl DeviceAgent {
    /// Create an agent for a persona, sampling its profile.
    pub fn new(persona: Persona, rng: &mut impl Rng) -> Self {
        Self::with_params(PersonaParams::for_persona(persona), rng)
    }

    /// Create an agent from explicit (possibly modified) parameters — the
    /// entry point for the §9 evasion-strategy experiments.
    pub fn with_params(mut params: PersonaParams, rng: &mut impl Rng) -> Self {
        // Population heterogeneity: a slice of each cohort sits near the
        // class boundary, which is what keeps the §8 device classifier's
        // error rate non-zero (as in the paper's Table 2).
        if params.persona.is_worker() && rng.gen_bool(params.novice_prob) {
            // Novice worker: a personal device with a trickle of ASO work.
            params.gmail_accounts = crate::dist::ClampedLogNormal::new(3.0, 0.5, 1.0, 8.0);
            params.promo_install_fraction *= 0.3;
            params.promo_accounts_per_app = crate::dist::ClampedLogNormal::new(1.5, 0.4, 1.0, 3.0);
            params.daily_installs.median = (params.daily_installs.median * 0.5).max(0.5);
            params.promo_open_prob = 0.6; // still curious about the apps
        }
        if params.persona == Persona::Regular && rng.gen_bool(params.enthusiast_prob) {
            // Review enthusiast: posts an order of magnitude more often.
            params.personal_review_prob = 0.25;
            params.gmail_accounts = crate::dist::ClampedLogNormal::new(4.0, 0.4, 1.0, 9.0);
        }
        let mut profile = DeviceProfile::sample(&params, rng);
        profile.capacity =
            (profile.n_initial_apps as f64 * rng.gen_range(1.05..1.30)).round() as u64;
        DeviceAgent {
            params,
            profile,
            gmail: Vec::new(),
            pending: BinaryHeap::new(),
            promoted_done: Vec::new(),
            account_scratch: Vec::new(),
            textgen: None,
        }
    }

    /// Enable (or disable) deterministic review-text generation. Consumes
    /// no RNG draws — safe to call between [`DeviceAgent::with_params`]
    /// and [`DeviceAgent::setup_history`] without perturbing any stream.
    pub(crate) fn set_textgen(&mut self, textgen: Option<crate::textgen::TextGen>) {
        self.textgen = textgen;
    }

    /// The base Google identity keying this device's promo template (its
    /// first Gmail account; workers write one text per app and post light
    /// edits of it from every account).
    fn text_base(&self) -> u64 {
        self.gmail.first().map(|&(_, g)| g.raw()).unwrap_or(0)
    }

    /// Worker-promo review text for `app` posted by `google_id`.
    fn promo_text(&self, app: AppId, google_id: GoogleId, rating: Rating) -> String {
        match &self.textgen {
            Some(g) => g.worker_promo(
                self.text_base(),
                u64::from(app.raw()),
                google_id.raw(),
                rating,
            ),
            None => String::new(),
        }
    }

    /// Personal-tier review text for `app` posted by `google_id`.
    fn personal_text(&self, app: AppId, google_id: GoogleId, rating: Rating) -> String {
        match &self.textgen {
            Some(g) => g.personal(google_id.raw(), u64::from(app.raw()), rating),
            None => String::new(),
        }
    }

    /// The agent's persona.
    pub fn persona(&self) -> Persona {
        self.params.persona
    }

    /// The device's Gmail identities (populated by `setup_history`).
    pub fn gmail_identities(&self) -> &[(AccountId, GoogleId)] {
        &self.gmail
    }

    /// Star rating for a promotion review: overwhelmingly 5★ (§2).
    fn promo_rating(rng: &mut impl Rng) -> Rating {
        Rating::new(if rng.gen_bool(0.85) { 5 } else { 4 }).expect("valid stars")
    }

    /// Star rating for a personal review: skewed positive like real stores.
    fn personal_rating(rng: &mut impl Rng) -> Rating {
        let r = rng.gen::<f64>();
        let stars = if r < 0.45 {
            5
        } else if r < 0.70 {
            4
        } else if r < 0.83 {
            3
        } else if r < 0.93 {
            1
        } else {
            2
        };
        Rating::new(stars).expect("valid stars")
    }

    /// Grant policy for a freshly installed app: workers mostly grant all
    /// (five interviewed workers did); regular users deny some dangerous
    /// permissions (§6.3 "App Permissions").
    fn permission_profile(
        &self,
        requested: PermissionSet,
        rng: &mut impl Rng,
    ) -> PermissionProfile {
        let deny_prob = match self.params.persona {
            Persona::Regular => 0.25,
            Persona::OrganicWorker => 0.10,
            Persona::DedicatedWorker => 0.05,
        };
        let mut profile = PermissionProfile {
            requested,
            ..PermissionProfile::default()
        };
        for p in requested.dangerous().iter() {
            if rng.gen_bool(deny_prob) {
                profile.denied.insert(p);
            } else {
                profile.granted.insert(p);
            }
        }
        profile
    }

    /// Pick an app to install: promoted with the persona's promo fraction,
    /// otherwise a popularity-weighted consumer app (or occasionally an
    /// off-store app).
    fn pick_install(&self, catalog: &AppCatalog, rng: &mut impl Rng) -> AppId {
        if rng.gen_bool(self.params.promo_install_fraction) && !catalog.promoted_apps().is_empty() {
            *catalog.promoted_apps().choose(rng).expect("non-empty")
        } else if rng.gen_bool(self.params.off_store_prob) && !catalog.off_store_apps().is_empty() {
            *catalog.off_store_apps().choose(rng).expect("non-empty")
        } else {
            match self.params.mainstream_only {
                Some(k) => catalog.sample_mainstream_app(rng, k),
                None => catalog.sample_consumer_app(rng),
            }
        }
    }

    /// Number of device accounts used to review one promoted app.
    ///
    /// Scales with the device's account wealth: a worker with 100+ Gmail
    /// accounts posts the same app from many more of them, which is what
    /// produces the paper's heavy tail (11 devices with > 1,000 total
    /// reviews, Figure 6).
    fn accounts_per_job(&self, rng: &mut impl Rng) -> usize {
        let base = self.params.promo_accounts_per_app.sample_count(rng) as f64;
        let wealth = (self.gmail.len() as f64 / 15.0).sqrt().max(1.0);
        ((base * wealth).round() as usize).clamp(1, self.gmail.len().max(1))
    }

    /// Schedule reviews for a newly installed promoted app.
    fn schedule_promo_reviews(
        &mut self,
        app: AppId,
        install_time: SimTime,
        horizon: SimTime,
        rng: &mut impl Rng,
    ) {
        if self.promoted_done.contains(&app) {
            return;
        }
        self.promoted_done.push(app);
        // Some jobs are install-only retention work: no review at all.
        if !rng.gen_bool(self.params.promo_job_review_prob) {
            return;
        }
        let k = self.accounts_per_job(rng);
        self.account_scratch.clear();
        self.account_scratch.extend_from_slice(&self.gmail);
        self.account_scratch.shuffle(rng);
        for idx in 0..k.min(self.account_scratch.len()) {
            let (account, google_id) = self.account_scratch[idx];
            if !rng.gen_bool(self.params.promo_review_prob) {
                continue;
            }
            let delay_days = self.params.promo_review_delay.sample_days(rng);
            let t =
                install_time.saturating_add(SimDuration::from_secs((delay_days * 86_400.0) as u64));
            if t <= horizon {
                let rating = Self::promo_rating(rng);
                let text = self.promo_text(app, google_id, rating);
                self.pending.push(PendingReview {
                    time: t,
                    app,
                    account,
                    google_id,
                    stars: rating.stars(),
                    text,
                });
            }
        }
    }

    /// Maybe schedule a personal review for a personally used app.
    fn maybe_schedule_personal_review(
        &mut self,
        app: AppId,
        install_time: SimTime,
        horizon: SimTime,
        rng: &mut impl Rng,
    ) {
        if !rng.gen_bool(self.params.personal_review_prob) || self.gmail.is_empty() {
            return;
        }
        let &(account, google_id) = self.gmail.first().expect("non-empty");
        let delay_days = self.params.personal_review_delay.sample_days(rng);
        let t = install_time.saturating_add(SimDuration::from_secs((delay_days * 86_400.0) as u64));
        if t <= horizon {
            let rating = Self::personal_rating(rng);
            let text = self.personal_text(app, google_id, rating);
            self.pending.push(PendingReview {
                time: t,
                app,
                account,
                google_id,
                stars: rating.stars(),
                text,
            });
        }
    }

    /// Populate accounts, the installed-app base, usage history and
    /// historical reviews. `now` is the study start; history extends over
    /// `[0, now)`. `horizon` bounds scheduled future reviews (study end).
    #[allow(clippy::too_many_arguments)]
    pub fn setup_history(
        &mut self,
        device: &mut racket_device::Device,
        catalog: &AppCatalog,
        store: &mut ReviewStore,
        directory: &mut GoogleIdDirectory,
        ids: &mut IdAllocator,
        now: SimTime,
        horizon: SimTime,
        rng: &mut impl Rng,
    ) {
        // ---- accounts -----------------------------------------------------
        for _ in 0..self.profile.n_gmail {
            let (account, google_id) = ids.next_account();
            directory.register(account, google_id);
            device.register_account(RegisteredAccount::gmail(account, google_id));
            self.gmail.push((account, google_id));
        }
        let mut services: Vec<AccountService> = AccountService::consumer_services().to_vec();
        services.shuffle(rng);
        for service in services
            .into_iter()
            .take(self.profile.n_consumer_services as usize)
        {
            let (account, _) = ids.next_account();
            device.register_account(RegisteredAccount::non_gmail(account, service));
        }
        if self.profile.has_dualspace {
            let (account, _) = ids.next_account();
            device.register_account(RegisteredAccount::non_gmail(
                account,
                AccountService::DualSpace,
            ));
        }
        if self.profile.has_freelancer {
            let (account, _) = ids.next_account();
            device.register_account(RegisteredAccount::non_gmail(
                account,
                AccountService::Freelancer,
            ));
        }

        // ---- preinstalled system apps --------------------------------------
        for &app in catalog.system_apps() {
            let meta = catalog.app(app);
            device.preinstall_app(
                app,
                PermissionProfile::grant_all(meta.permissions),
                meta.apk_hash,
            );
            // Regular users live in their system apps (store, mail, browser).
            let open_days = match self.params.persona {
                Persona::Regular => 5,
                Persona::OrganicWorker => 3,
                Persona::DedicatedWorker => 1,
            };
            for _ in 0..open_days {
                if rng.gen_bool(0.6) {
                    // Open time and session length: kept draws, the device stores neither.
                    let _ = (rng.gen_range(0..86_400u64), rng.gen_range(30..600u64));
                    device.open_app(app);
                }
            }
        }

        // ---- installed user apps -------------------------------------------
        let history_secs = now.as_secs().max(86_400);
        for _ in 0..self.profile.n_initial_apps {
            let app = self.pick_install(catalog, rng);
            if device.is_installed(app) {
                continue;
            }
            let meta = catalog.app(app);
            let install_time = SimTime::from_secs(rng.gen_range(0..history_secs));
            let profile = self.permission_profile(meta.permissions, rng);
            device.install_app(app, install_time, profile, meta.apk_hash);

            let is_promo = catalog.promoted_apps().contains(&app);
            let open_prob = if is_promo {
                self.params.promo_open_prob
            } else {
                0.85
            };
            if rng.gen_bool(open_prob) {
                // Opened on one to several days since installation.
                let days_since = now.saturating_since(install_time).as_days().max(1.0);
                let n_days = if is_promo {
                    1
                } else {
                    rng.gen_range(1..=(days_since as u64).clamp(1, 6))
                };
                for _ in 0..n_days {
                    // Open time and session length: kept draws, the device stores neither.
                    let _ = rng.gen_range(0..(history_secs - install_time.as_secs()).max(1));
                    let _ = rng.gen_range(20..900u64);
                    device.open_app(app);
                }
            }
            if is_promo {
                self.schedule_promo_reviews(app, install_time, horizon, rng);
                if rng.gen_bool(self.params.promo_stop_prob) {
                    device.stop_app(app);
                }
            } else {
                self.maybe_schedule_personal_review(app, install_time, horizon, rng);
            }
        }

        // ---- past promotion jobs (apps since uninstalled) -------------------
        if self.params.persona.is_worker() && !catalog.promoted_apps().is_empty() {
            // Roughly: promo installs per day × history days × the fraction
            // not retained on the device.
            // Job flow is not constant over a device's lifetime; bound the
            // effective window so long histories don't inflate totals.
            let job_window_days = now.as_days().min(90.0);
            let expected_jobs = self.profile.install_rate
                * self.params.promo_install_fraction
                * job_window_days
                * 0.065;
            let n_jobs = poisson(rng, expected_jobs).min(400);
            for _ in 0..n_jobs {
                let app = *catalog.promoted_apps().choose(rng).expect("non-empty");
                if self.promoted_done.contains(&app) {
                    continue;
                }
                self.promoted_done.push(app);
                if !rng.gen_bool(self.params.promo_job_review_prob) {
                    continue;
                }
                let k = self.accounts_per_job(rng);
                let t_install = SimTime::from_secs(rng.gen_range(0..history_secs));
                self.account_scratch.clear();
                self.account_scratch.extend_from_slice(&self.gmail);
                self.account_scratch.shuffle(rng);
                for idx in 0..k.min(self.account_scratch.len()) {
                    let (_, google_id) = self.account_scratch[idx];
                    if !rng.gen_bool(self.params.promo_review_prob) {
                        continue;
                    }
                    let delay = self.params.promo_review_delay.sample_days(rng);
                    let t =
                        t_install.saturating_add(SimDuration::from_secs((delay * 86_400.0) as u64));
                    let t = t.min(now); // posted in the past
                    store.post(Review::new(app, google_id, t, Self::promo_rating(rng)));
                    let rating = Self::promo_rating(rng);
                    let text = self.promo_text(app, google_id, rating);
                    device.record_review(app, google_id, rating, t, &text);
                }
            }
        }

        // Flush reviews that fell due during history into the store now.
        self.flush_due_reviews(device, store, now);
    }

    /// Post every pending review due at or before `now` directly (used for
    /// the history phase; during the study the planner emits them as
    /// timeline actions instead).
    pub(crate) fn flush_due_reviews(
        &mut self,
        device: &mut racket_device::Device,
        store: &mut ReviewStore,
        now: SimTime,
    ) {
        while let Some(p) = self.pending.peek() {
            if p.time > now {
                break;
            }
            let p = self.pending.pop().expect("peeked");
            let rating = Rating::new(p.stars).expect("valid stars");
            store.post(Review::new(p.app, p.google_id, p.time, rating));
            device.record_review(p.app, p.google_id, rating, p.time, &p.text);
        }
    }

    /// Plan one day `[day_start, day_start + 1d)` of actions against the
    /// device's current state. Install actions schedule their future
    /// reviews; reviews already due today are emitted as actions.
    ///
    /// The plan lands in `scratch.actions` (cleared first), the uninstall
    /// and open pools are read from `scratch`'s incremental indexes instead
    /// of being rebuilt from the device, and `scratch.shuffle` carries the
    /// uninstall shuffle. Steady state allocates nothing.
    pub fn plan_day_into(
        &mut self,
        device: &racket_device::Device,
        catalog: &AppCatalog,
        day_start: SimTime,
        horizon: SimTime,
        rng: &mut impl Rng,
        scratch: &mut crate::lane::LaneScratch,
    ) {
        scratch.actions.clear();
        let actions = &mut scratch.actions;
        let day_secs = 86_400u64;
        fn t_in_day(day_start: SimTime, day_secs: u64, rng: &mut impl Rng) -> SimTime {
            SimTime::from_secs(day_start.as_secs() + rng.gen_range(0..day_secs))
        }

        // Installs.
        let n_installs = poisson(rng, self.profile.install_rate);
        for _ in 0..n_installs {
            let app = self.pick_install(catalog, rng);
            if device.is_installed(app) {
                continue;
            }
            let t = t_in_day(day_start, day_secs, rng);
            actions.push(TimelineAction {
                time: t,
                action: Action::Install { app },
            });
            let is_promo = catalog.promoted_apps().contains(&app);
            if is_promo {
                self.schedule_promo_reviews(app, t, horizon, rng);
                if rng.gen_bool(self.params.promo_open_prob) {
                    let t_open = t.saturating_add(SimDuration::from_secs(rng.gen_range(60..3_600)));
                    actions.push(TimelineAction {
                        time: t_open,
                        action: Action::Open {
                            app,
                            secs: rng.gen_range(15..120),
                        },
                    });
                }
                if rng.gen_bool(self.params.promo_stop_prob) {
                    let t_stop = t.saturating_add(SimDuration::from_hours(rng.gen_range(2..20)));
                    actions.push(TimelineAction {
                        time: t_stop,
                        action: Action::Stop { app },
                    });
                }
            } else {
                self.maybe_schedule_personal_review(app, t, horizon, rng);
                if rng.gen_bool(0.8) {
                    let t_open = t.saturating_add(SimDuration::from_secs(rng.gen_range(30..7_200)));
                    actions.push(TimelineAction {
                        time: t_open,
                        action: Action::Open {
                            app,
                            secs: rng.gen_range(30..900),
                        },
                    });
                }
            }
        }

        // Uninstalls of current user apps: the scratch's incremental
        // removable index holds the same ascending app set the old
        // per-day `filter().collect()` rebuild produced, and the shuffle
        // runs on a working copy so the index stays canonical.
        // Base uninstall flow plus capacity pressure: anything over the
        // device's soft capacity is shed the same day.
        let over_capacity = (device.installed_count() as u64 + n_installs)
            .saturating_sub(self.profile.capacity.max(10));
        let n_uninstalls = (poisson(rng, self.profile.uninstall_rate) + over_capacity)
            .min(scratch.removable.len() as u64);
        scratch.shuffle.clear();
        scratch.shuffle.extend_from_slice(&scratch.removable);
        scratch.shuffle.shuffle(rng);
        for idx in 0..n_uninstalls as usize {
            let app = scratch.shuffle[idx];
            actions.push(TimelineAction {
                time: t_in_day(day_start, day_secs, rng),
                action: Action::Uninstall { app },
            });
        }

        // App-open sessions on already-installed apps (personal usage),
        // drawn from the incremental openable index (same content and
        // order as the rebuild it replaces, so `choose` draws match).
        if !scratch.openable.is_empty() {
            let n_opens = poisson(rng, self.profile.open_rate);
            for _ in 0..n_opens {
                let app = *scratch.openable.choose(rng).expect("non-empty");
                let t = t_in_day(day_start, day_secs, rng);
                let secs = rng.gen_range(20..1_200);
                actions.push(TimelineAction {
                    time: t,
                    action: Action::Open { app, secs },
                });
                actions.push(TimelineAction {
                    time: t.saturating_add(SimDuration::from_secs(secs)),
                    action: Action::ScreenOff,
                });
            }
        }

        // Reviews falling due today.
        let day_end = day_start + SimDuration::from_days(1);
        while let Some(p) = self.pending.peek() {
            if p.time >= day_end {
                break;
            }
            let p = self.pending.pop().expect("peeked");
            let time = p.time.max(day_start);
            actions.push(TimelineAction {
                time,
                action: Action::Review {
                    app: p.app,
                    account: p.account,
                    google_id: p.google_id,
                    rating: Rating::new(p.stars).expect("valid stars"),
                    text: p.text,
                },
            });
        }

        actions.sort_by_key(|a| a.time);
    }
}

/// Apply one action to a device, pushing any review it posts to `reviews`
/// instead of a [`ReviewStore`].
///
/// This is the per-device half of the parallel study driver's contract —
/// every other effect of an action is local to `device`, so worker threads
/// apply actions independently and the driver posts the collected reviews
/// serially, in device order, keeping the store deterministic.
pub fn apply_action_collecting(
    device: &mut racket_device::Device,
    reviews: &mut Vec<Review>,
    catalog: &AppCatalog,
    ta: &TimelineAction,
    rng: &mut impl Rng,
) {
    match &ta.action {
        Action::Install { app } => {
            let meta = catalog.app(*app);
            // Grant-all at replay; the persona-specific deny policy was
            // already exercised for the history base, and §7.1 permission
            // features mix both.
            let profile = if rng.gen_bool(0.85) {
                PermissionProfile::grant_all(meta.permissions)
            } else {
                let mut p = PermissionProfile::grant_all(meta.permissions);
                if let Some(d) = p.granted.iter().last() {
                    p.granted.remove(d);
                    p.denied.insert(d);
                }
                p
            };
            device.install_app(*app, ta.time, profile, meta.apk_hash);
        }
        Action::Uninstall { app } => {
            device.uninstall_app(*app);
        }
        Action::Open { app, .. } => {
            device.open_app(*app);
        }
        Action::Stop { app } => {
            device.stop_app(*app);
        }
        Action::Review {
            app,
            google_id,
            rating,
            text,
            ..
        } => {
            reviews.push(Review::new(*app, *google_id, ta.time, *rating));
            device.record_review(*app, *google_id, *rating, ta.time, text);
        }
        Action::ScreenOff => {
            device.set_screen(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_device::Device;
    use racket_playstore::CatalogConfig;
    use racket_types::AndroidId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn harness() -> (
        AppCatalog,
        ReviewStore,
        GoogleIdDirectory,
        IdAllocator,
        StdRng,
    ) {
        (
            AppCatalog::generate(&CatalogConfig::default()),
            ReviewStore::new(),
            GoogleIdDirectory::new(),
            IdAllocator::default(),
            StdRng::seed_from_u64(99),
        )
    }

    fn setup(persona: Persona) -> (Device, DeviceAgent, AppCatalog, ReviewStore) {
        let (catalog, mut store, mut dir, mut ids, mut rng) = harness();
        let mut device = Device::new(Some(AndroidId(1)));
        let mut agent = DeviceAgent::new(persona, &mut rng);
        let now = SimTime::from_days(180);
        let horizon = SimTime::from_days(195);
        agent.setup_history(
            &mut device,
            &catalog,
            &mut store,
            &mut dir,
            &mut ids,
            now,
            horizon,
            &mut rng,
        );
        (device, agent, catalog, store)
    }

    /// [`DeviceAgent::plan_day_into`] with a throwaway scratch seeded from
    /// the device, returning the plan (a lane keeps its scratch instead).
    fn plan_day(
        agent: &mut DeviceAgent,
        device: &Device,
        catalog: &AppCatalog,
        day_start: SimTime,
        horizon: SimTime,
        rng: &mut impl Rng,
    ) -> Vec<TimelineAction> {
        let mut scratch = crate::lane::LaneScratch::new();
        scratch.seed_indexes(device, catalog, agent.params.persona);
        agent.plan_day_into(device, catalog, day_start, horizon, rng, &mut scratch);
        scratch.actions
    }

    #[test]
    fn regular_history_shape() {
        let (device, agent, catalog, store) = setup(Persona::Regular);
        assert!(device.gmail_accounts().count() <= 10);
        assert!(device.installed_count() >= 15);
        // Regular devices post few reviews.
        let total: usize = agent
            .gmail_identities()
            .iter()
            .map(|&(_, g)| store.reviews_by(g).len())
            .sum();
        assert!(total <= 40, "regular device posted {total} reviews");
        // No promoted apps get installed by regular users.
        let promo_installed = device
            .installed_apps()
            .filter(|a| catalog.promoted_apps().contains(&a.app))
            .count();
        assert_eq!(promo_installed, 0);
    }

    #[test]
    fn dedicated_worker_history_shape() {
        let (device, agent, catalog, store) = setup(Persona::DedicatedWorker);
        assert!(device.gmail_accounts().count() >= 5);
        // Workers accumulate many reviews from their accounts.
        let total: usize = agent
            .gmail_identities()
            .iter()
            .map(|&(_, g)| store.reviews_by(g).len())
            .sum();
        assert!(total > 30, "worker device only posted {total} reviews");
        // Promoted apps are installed.
        let promo_installed = device
            .installed_apps()
            .filter(|a| catalog.promoted_apps().contains(&a.app))
            .count();
        assert!(promo_installed > 0);
        // Stopped apps accumulate (never-opened promos + force stops).
        assert!(device.installed_apps().filter(|a| a.stopped).count() >= 5);
    }

    #[test]
    fn plan_day_produces_sorted_feasible_actions() {
        let (device, mut agent, catalog, _) = setup(Persona::OrganicWorker);
        let mut rng = StdRng::seed_from_u64(3);
        let day = SimTime::from_days(180);
        let actions = plan_day(
            &mut agent,
            &device,
            &catalog,
            day,
            SimTime::from_days(195),
            &mut rng,
        );
        for w in actions.windows(2) {
            assert!(w[0].time <= w[1].time, "actions sorted by time");
        }
        for a in &actions {
            assert!(a.time >= day, "no action before the planned day");
        }
    }

    #[test]
    fn replaying_actions_updates_device_and_store() {
        let (mut device, mut agent, catalog, mut store) = setup(Persona::DedicatedWorker);
        let mut rng = StdRng::seed_from_u64(4);
        let before_reviews = store.total_reviews();
        let before_stamp = device.pkg_stamp();
        for day in 180..184 {
            let day_start = SimTime::from_days(day);
            let actions = plan_day(
                &mut agent,
                &device,
                &catalog,
                day_start,
                SimTime::from_days(195),
                &mut rng,
            );
            let mut reviews = Vec::new();
            for ta in &actions {
                apply_action_collecting(&mut device, &mut reviews, &catalog, ta, &mut rng);
            }
            for review in reviews {
                store.post(review);
            }
        }
        assert!(device.pkg_stamp() > before_stamp, "packages changed");
        assert!(store.total_reviews() >= before_reviews);
    }

    #[test]
    fn pending_reviews_respect_one_per_app() {
        let (_, mut agent, _, _) = setup(Persona::DedicatedWorker);
        let mut rng = StdRng::seed_from_u64(5);
        let n_before = agent.pending.len();
        // Re-scheduling the same app is a no-op.
        let app = agent.promoted_done.first().copied();
        if let Some(app) = app {
            agent.schedule_promo_reviews(
                app,
                SimTime::from_days(180),
                SimTime::from_days(195),
                &mut rng,
            );
            assert_eq!(agent.pending.len(), n_before);
        }
    }

    #[test]
    fn id_allocator_unique() {
        let mut ids = IdAllocator::default();
        let (a1, g1) = ids.next_account();
        let (a2, g2) = ids.next_account();
        assert_ne!(a1, a2);
        assert_ne!(g1, g2);
    }
}
