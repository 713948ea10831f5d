//! Reusable per-lane scratch for the study driver's hot path.
//!
//! One [`LaneScratch`] lives on each device lane for the whole study. It
//! owns every buffer a lane-day needs — the planned action list, the
//! day's review output, the crawl-set membership deltas, and the
//! incremental app indexes [`DeviceAgent::plan_day_into`] reads — so a
//! steady-state device-day allocates nothing (pinned by
//! `tests/alloc_regression.rs`).
//!
//! ## Ownership rules
//!
//! * The **driver** (one lane = one device = one scratch) clears
//!   `actions` / `reviews` / `installed_deltas` implicitly through
//!   [`DeviceAgent::plan_day_into`] and [`LaneScratch::begin_day`]; the
//!   index vectors are never cleared after seeding — they are maintained
//!   incrementally.
//! * The **agent** reads `removable` / `openable` and uses `shuffle` as
//!   its working copy; it never mutates the indexes.
//! * The driver calls [`LaneScratch::note_install`] /
//!   [`LaneScratch::note_uninstall`] after *actually* mutating the device
//!   (guarded on the device's pre-action install state), which keeps the
//!   indexes exactly equal to the `filter().collect()` rebuilds they
//!   replace.
//!
//! ## RNG neutrality
//!
//! The indexes hold the same app IDs in the same (ascending) order as the
//! per-day rebuilds did — `Device::installed_apps` iterates a `BTreeMap`
//! in ascending key order, and the sorted insert/remove here preserves
//! that invariant — so every `shuffle` / `choose` sees identical inputs
//! and consumes identical RNG draws. Study output stays byte-identical.

#[cfg(doc)]
use crate::agent::DeviceAgent;
use crate::agent::TimelineAction;
use racket_playstore::AppCatalog;
use racket_types::{AppId, Persona, Review};

/// Per-lane reusable buffers and incremental app indexes (see the module
/// docs for the ownership and RNG-neutrality contract).
#[derive(Debug, Default, Clone)]
pub struct LaneScratch {
    /// The day's planned (and directive-merged) actions, sorted by time.
    pub actions: Vec<TimelineAction>,
    /// Reviews produced while applying the day's actions; drained by the
    /// driver serially in lane order.
    pub reviews: Vec<Review>,
    /// Install/uninstall membership deltas of this lane-day:
    /// `(app, true)` = newly installed, `(app, false)` = uninstalled.
    /// Folded into the study's crawl-set counts serially after the day.
    pub installed_deltas: Vec<(AppId, bool)>,
    /// Installed, non-preinstalled apps, ascending — the uninstall pool.
    pub(crate) removable: Vec<AppId>,
    /// Installed apps this persona opens organically, ascending — the
    /// open-session pool (workers exclude promoted installs; regular
    /// users open everything).
    pub(crate) openable: Vec<AppId>,
    /// Working copy of `removable` for the per-day shuffle.
    pub(crate) shuffle: Vec<AppId>,
}

impl LaneScratch {
    /// An empty scratch; call [`LaneScratch::seed_indexes`] before the
    /// first planned day.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the app indexes from the device's current state. Called once
    /// at lane setup (after history generation); afterwards the indexes
    /// are maintained by [`LaneScratch::note_install`] /
    /// [`LaneScratch::note_uninstall`].
    pub fn seed_indexes(
        &mut self,
        device: &racket_device::Device,
        catalog: &AppCatalog,
        persona: Persona,
    ) {
        self.removable.clear();
        self.openable.clear();
        for info in device.installed_apps() {
            if !info.preinstalled {
                self.removable.push(info.app);
            }
            if !catalog.promoted_apps().contains(&info.app) || persona == Persona::Regular {
                self.openable.push(info.app);
            }
        }
    }

    /// Reset the per-day output buffers (`reviews`, `installed_deltas`).
    /// `actions` is cleared by [`DeviceAgent::plan_day_into`].
    pub fn begin_day(&mut self) {
        self.reviews.clear();
        self.installed_deltas.clear();
    }

    /// Record that `app` is now installed (call only after a successful
    /// install of a previously absent app, or idempotently on reinstall —
    /// an already-indexed app is left untouched). Study-time installs are
    /// never preinstalled system apps, so the app always joins the
    /// removable pool.
    pub fn note_install(&mut self, app: AppId, catalog: &AppCatalog, persona: Persona) {
        if let Err(i) = self.removable.binary_search(&app) {
            self.removable.insert(i, app);
        }
        if !catalog.promoted_apps().contains(&app) || persona == Persona::Regular {
            if let Err(i) = self.openable.binary_search(&app) {
                self.openable.insert(i, app);
            }
        }
    }

    /// Record that `app` was uninstalled (call only when the device
    /// actually removed it).
    pub fn note_uninstall(&mut self, app: AppId) {
        if let Ok(i) = self.removable.binary_search(&app) {
            self.removable.remove(i);
        }
        if let Ok(i) = self.openable.binary_search(&app) {
            self.openable.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::DeviceAgent;
    use racket_playstore::CatalogConfig;
    use racket_types::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indexes_track_the_rebuild_they_replace() {
        // Seed a realistic device, then apply churn while maintaining the
        // indexes incrementally; after every step they must equal the
        // filter().collect() rebuilds plan_day used to do.
        let catalog = AppCatalog::generate(&CatalogConfig::default());
        let mut store = racket_playstore::ReviewStore::new();
        let mut dir = racket_playstore::GoogleIdDirectory::new();
        let mut ids = crate::agent::IdAllocator::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut device = racket_device::Device::new(Some(racket_types::AndroidId(1)));
        let persona = Persona::OrganicWorker;
        let mut agent = DeviceAgent::new(persona, &mut rng);
        agent.setup_history(
            &mut device,
            &catalog,
            &mut store,
            &mut dir,
            &mut ids,
            SimTime::from_days(30),
            SimTime::from_days(45),
            &mut rng,
        );

        let rebuild = |device: &racket_device::Device| {
            let removable: Vec<AppId> = device
                .installed_apps()
                .filter(|a| !a.preinstalled)
                .map(|a| a.app)
                .collect();
            let openable: Vec<AppId> = device
                .installed_apps()
                .filter(|a| {
                    !catalog.promoted_apps().contains(&a.app) || persona == Persona::Regular
                })
                .map(|a| a.app)
                .collect();
            (removable, openable)
        };

        let mut scratch = LaneScratch::new();
        scratch.seed_indexes(&device, &catalog, persona);
        let (removable, openable) = rebuild(&device);
        assert_eq!(scratch.removable, removable.as_slice());
        assert_eq!(scratch.openable, openable.as_slice());

        // Churn: uninstall some existing apps, install fresh ones
        // (including promoted, which stays out of a worker's openable).
        let victims: Vec<AppId> = removable.iter().copied().take(3).collect();
        for app in victims {
            assert!(device.is_installed(app));
            device.uninstall_app(app);
            scratch.note_uninstall(app);
        }
        let fresh: Vec<AppId> = catalog
            .promoted_apps()
            .iter()
            .chain(catalog.consumer_apps())
            .copied()
            .filter(|&a| !device.is_installed(a))
            .take(4)
            .collect();
        for (i, app) in fresh.into_iter().enumerate() {
            let t = SimTime::from_days(31) + racket_types::SimDuration::from_secs(i as u64);
            let meta = catalog.app(app);
            device.install_app(
                app,
                t,
                racket_types::PermissionProfile::grant_all(meta.permissions),
                meta.apk_hash,
            );
            scratch.note_install(app, &catalog, persona);
        }

        let (removable, openable) = rebuild(&device);
        assert_eq!(scratch.removable, removable.as_slice());
        assert_eq!(scratch.openable, openable.as_slice());
    }

    #[test]
    fn note_install_is_idempotent_on_reinstall() {
        let catalog = AppCatalog::generate(&CatalogConfig::default());
        let mut scratch = LaneScratch::new();
        let app = catalog.promoted_apps()[0];
        scratch.note_install(app, &catalog, Persona::DedicatedWorker);
        scratch.note_install(app, &catalog, Persona::DedicatedWorker);
        assert_eq!(scratch.removable, [app]);
        assert!(scratch.openable.is_empty(), "worker skips promoted apps");
        scratch.note_uninstall(app);
        assert!(scratch.removable.is_empty());
    }
}
