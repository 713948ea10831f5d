//! The synthetic app catalog.
//!
//! The study saw 12,341 distinct apps on participant devices (§5). The
//! catalog generates a population with the structure the analyses need:
//!
//! * a small set of *system* apps preinstalled on every device;
//! * popular consumer apps with Zipf-like popularity (what regular users
//!   install);
//! * a long tail of obscure apps;
//! * *promoted* apps — the targets of ASO campaigns, advertised in the
//!   Facebook groups the authors infiltrated (§7.2's suspicious-app rule
//!   requires knowing which apps were advertised for promotion);
//! * apps not on the Play Store at all, including *modded* builds (§6.3);
//! * a minority of malware-carrying builds with VirusTotal flags (§6.4).

use racket_types::{ApkHash, AppCategory, AppId, AppMetadata, Permission, PermissionSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Sizing and composition of the generated catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogConfig {
    /// Preinstalled system apps (store, mail, maps, browser, dialer, …).
    pub n_system: usize,
    /// Popular consumer apps.
    pub n_popular: usize,
    /// Long-tail consumer apps.
    pub n_tail: usize,
    /// ASO-promoted apps.
    pub n_promoted: usize,
    /// Apps only available outside Google Play (incl. modded builds).
    pub n_off_store: usize,
    /// Fraction of promoted apps whose builds carry malware flags.
    pub promoted_malware_rate: f64,
    /// Fraction of tail apps whose builds carry malware flags.
    pub tail_malware_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            n_system: 12,
            n_popular: 400,
            n_tail: 1200,
            n_promoted: 300,
            n_off_store: 40,
            promoted_malware_rate: 0.12,
            tail_malware_rate: 0.02,
            seed: 2021,
        }
    }
}

/// The generated catalog plus the metadata the simulator needs per app.
#[derive(Debug, Clone)]
pub struct AppCatalog {
    apps: Vec<AppMetadata>,
    /// Popularity weight per app (index = AppId.0).
    popularity: Vec<f64>,
    /// Indices of each slice of the population.
    system: Vec<AppId>,
    consumer: Vec<AppId>,
    promoted: Vec<AppId>,
    off_store: Vec<AppId>,
    /// Apk hashes flagged as malware, with engine-flag counts.
    malware: Vec<(ApkHash, u8)>,
}

impl AppCatalog {
    /// Generate a catalog from a config.
    pub fn generate(config: &CatalogConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut apps = Vec::new();
        let mut popularity = Vec::new();
        let mut system = Vec::new();
        let mut consumer = Vec::new();
        let mut promoted = Vec::new();
        let mut off_store = Vec::new();
        let mut malware = Vec::new();

        let mut next_id = 0u32;
        let mut push = |apps: &mut Vec<AppMetadata>,
                        popularity: &mut Vec<f64>,
                        rng: &mut StdRng,
                        package: String,
                        category: AppCategory,
                        weight: f64,
                        on_play_store: bool,
                        modded: bool| {
            let id = AppId(next_id);
            next_id += 1;
            let permissions = Self::sample_permissions(rng, category);
            let mut hash = [0u8; 16];
            rng.fill(&mut hash);
            apps.push(AppMetadata {
                id,
                package,
                category,
                permissions,
                apk_hash: ApkHash(hash),
                on_play_store,
                modded,
            });
            popularity.push(weight);
            id
        };

        // System apps: ship with the image, always present, highly used.
        const SYSTEM_PACKAGES: [&str; 12] = [
            "com.android.vending",
            "com.google.android.gm",
            "com.google.android.apps.maps",
            "com.android.chrome",
            "com.samsung.android.messaging",
            "com.samsung.android.incallui",
            "com.google.android.music",
            "com.android.camera",
            "com.android.gallery3d",
            "com.android.settings",
            "com.google.android.youtube",
            "com.android.dialer",
        ];
        for i in 0..config.n_system {
            let pkg = SYSTEM_PACKAGES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("com.android.system{i}"));
            let id = push(
                &mut apps,
                &mut popularity,
                &mut rng,
                pkg,
                AppCategory::System,
                0.0, // never chosen for installation; preinstalled instead
                true,
                false,
            );
            system.push(id);
        }

        // Popular consumer apps: Zipf weights.
        let consumer_categories = [
            AppCategory::Social,
            AppCategory::Communication,
            AppCategory::Game,
            AppCategory::Entertainment,
            AppCategory::Shopping,
            AppCategory::Music,
            AppCategory::Finance,
            AppCategory::Photography,
            AppCategory::Tools,
            AppCategory::News,
        ];
        for i in 0..config.n_popular {
            let category = consumer_categories[i % consumer_categories.len()];
            let id = push(
                &mut apps,
                &mut popularity,
                &mut rng,
                format!("com.popular.app{i}"),
                category,
                1.0 / (i + 1) as f64, // Zipf
                true,
                false,
            );
            consumer.push(id);
        }

        // Long tail.
        for i in 0..config.n_tail {
            let category = consumer_categories[(i * 7) % consumer_categories.len()];
            let is_malware = rng.gen_bool(config.tail_malware_rate);
            let id = push(
                &mut apps,
                &mut popularity,
                &mut rng,
                format!("com.tail.app{i}"),
                category,
                0.002,
                true,
                false,
            );
            consumer.push(id);
            if is_malware {
                malware.push((apps[id.0 as usize].apk_hash, rng.gen_range(1..=10)));
            }
        }

        // Promoted apps: obscure, permission-hungry, sometimes malicious.
        for i in 0..config.n_promoted {
            let category = consumer_categories[(i * 3) % consumer_categories.len()];
            let id = push(
                &mut apps,
                &mut popularity,
                &mut rng,
                format!("com.promo.app{i}"),
                category,
                0.0005, // essentially never organically installed
                true,
                false,
            );
            promoted.push(id);
            if rng.gen_bool(config.promoted_malware_rate) {
                // Promoted malware draws more engine flags (§6.4: worker
                // malware tends to be flagged by more engines).
                malware.push((apps[id.0 as usize].apk_hash, rng.gen_range(5..=20)));
            }
        }

        // Off-store apps, half of them modded builds of popular apps.
        for i in 0..config.n_off_store {
            let modded = i % 2 == 0;
            let id = push(
                &mut apps,
                &mut popularity,
                &mut rng,
                if modded {
                    format!("com.modded.premium{i}")
                } else {
                    format!("com.thirdparty.app{i}")
                },
                AppCategory::Entertainment,
                0.001,
                false,
                modded,
            );
            off_store.push(id);
            if modded && rng.gen_bool(0.3) {
                malware.push((apps[id.0 as usize].apk_hash, rng.gen_range(2..=15)));
            }
        }

        AppCatalog {
            apps,
            popularity,
            system,
            consumer,
            promoted,
            off_store,
            malware,
        }
    }

    /// Sample a permission manifest for a category: every app gets the
    /// basic normal permissions plus a category-dependent number of
    /// dangerous ones.
    fn sample_permissions(rng: &mut StdRng, category: AppCategory) -> PermissionSet {
        let mut perms = vec![Permission::Internet, Permission::AccessNetworkState];
        if rng.gen_bool(0.6) {
            perms.push(Permission::WakeLock);
        }
        if rng.gen_bool(0.3) {
            perms.push(Permission::ReceiveBootCompleted);
        }
        if rng.gen_bool(0.4) {
            perms.push(Permission::Vibrate);
        }
        let dangerous: Vec<Permission> = Permission::dangerous().collect();
        let n_dangerous = match category {
            AppCategory::System => rng.gen_range(2..6),
            AppCategory::Social | AppCategory::Communication => rng.gen_range(4..10),
            AppCategory::Game | AppCategory::Entertainment => rng.gen_range(1..5),
            _ => rng.gen_range(0..7),
        };
        let mut pool = dangerous;
        pool.shuffle(rng);
        perms
            .into_iter()
            .chain(pool.into_iter().take(n_dangerous))
            .collect()
    }

    /// All apps.
    pub fn apps(&self) -> &[AppMetadata] {
        &self.apps
    }

    /// Metadata of one app.
    pub fn app(&self, id: AppId) -> &AppMetadata {
        &self.apps[id.0 as usize]
    }

    /// Number of apps in the catalog.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Preinstalled system apps.
    pub fn system_apps(&self) -> &[AppId] {
        &self.system
    }

    /// Consumer apps (popular + tail) a regular user installs from.
    pub fn consumer_apps(&self) -> &[AppId] {
        &self.consumer
    }

    /// ASO-campaign target apps.
    pub fn promoted_apps(&self) -> &[AppId] {
        &self.promoted
    }

    /// Apps not distributed through Google Play.
    pub fn off_store_apps(&self) -> &[AppId] {
        &self.off_store
    }

    /// The malware ground truth: `(apk hash, engines flagging it)` pairs,
    /// consumed by [`crate::VirusTotalSim`].
    pub fn malware_hashes(&self) -> &[(ApkHash, u8)] {
        &self.malware
    }

    /// Sample a consumer app, weighted by popularity.
    pub fn sample_consumer_app(&self, rng: &mut impl Rng) -> AppId {
        self.sample_consumer_prefix(rng, self.consumer.len())
    }

    /// Sample from the `k` most popular consumer apps only.
    ///
    /// Models taste breadth: ASO workers' *personal* installs concentrate
    /// on mainstream apps, while regular users also reach deep into the
    /// long tail (niche games, local services) — which is what leaves the
    /// §7.2 non-suspicious rule a population of regular-exclusive apps.
    pub fn sample_mainstream_app(&self, rng: &mut impl Rng, k: usize) -> AppId {
        self.sample_consumer_prefix(rng, k.clamp(1, self.consumer.len()))
    }

    fn sample_consumer_prefix(&self, rng: &mut impl Rng, k: usize) -> AppId {
        let slice = &self.consumer[..k.min(self.consumer.len())];
        let total: f64 = slice.iter().map(|id| self.popularity[id.0 as usize]).sum();
        let mut target = rng.gen::<f64>() * total;
        for &id in slice {
            target -= self.popularity[id.0 as usize];
            if target <= 0.0 {
                return id;
            }
        }
        *slice.last().expect("catalog has consumer apps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> AppCatalog {
        AppCatalog::generate(&CatalogConfig::default())
    }

    #[test]
    fn population_sizes() {
        let cfg = CatalogConfig::default();
        let c = catalog();
        assert_eq!(
            c.len(),
            cfg.n_system + cfg.n_popular + cfg.n_tail + cfg.n_promoted + cfg.n_off_store
        );
        assert_eq!(c.system_apps().len(), cfg.n_system);
        assert_eq!(c.promoted_apps().len(), cfg.n_promoted);
        assert_eq!(c.off_store_apps().len(), cfg.n_off_store);
        assert!(!c.is_empty());
    }

    #[test]
    fn app_ids_are_dense_indices() {
        let c = catalog();
        for (i, app) in c.apps().iter().enumerate() {
            assert_eq!(app.id.0 as usize, i);
        }
    }

    #[test]
    fn system_apps_are_system_category_and_on_store() {
        let c = catalog();
        for &id in c.system_apps() {
            let m = c.app(id);
            assert_eq!(m.category, AppCategory::System);
            assert!(m.on_play_store);
        }
    }

    #[test]
    fn off_store_apps_not_on_play() {
        let c = catalog();
        for &id in c.off_store_apps() {
            assert!(!c.app(id).on_play_store);
        }
        assert!(c.off_store_apps().iter().any(|&id| c.app(id).modded));
    }

    #[test]
    fn every_app_requests_internet() {
        let c = catalog();
        for app in c.apps() {
            assert!(app.permissions.contains(Permission::Internet));
        }
    }

    #[test]
    fn popular_apps_sampled_more_often() {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; c.len()];
        for _ in 0..5000 {
            counts[c.sample_consumer_app(&mut rng).0 as usize] += 1;
        }
        // The single most popular app beats any individual tail app.
        let first_popular = c.consumer_apps()[0].0 as usize;
        let tail_start = c.consumer_apps()[200].0 as usize;
        assert!(counts[first_popular] > counts[tail_start] * 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AppCatalog::generate(&CatalogConfig::default());
        let b = AppCatalog::generate(&CatalogConfig::default());
        assert_eq!(a.apps(), b.apps());
        assert_eq!(a.malware_hashes(), b.malware_hashes());
    }

    #[test]
    fn malware_exists_and_references_real_hashes() {
        let c = catalog();
        assert!(!c.malware_hashes().is_empty());
        for (hash, flags) in c.malware_hashes() {
            assert!(*flags >= 1);
            assert!(c.apps().iter().any(|a| a.apk_hash == *hash));
        }
    }
}
