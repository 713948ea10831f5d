//! The campaign detector: LSH candidates → temporal co-occurrence
//! scoring → greedy quasi-clique mining.
//!
//! [`detect()`] is a pure function of the per-device sketch sets, shared
//! verbatim by the batch path (sketches rebuilt from the columnar
//! install-event family) and the incremental path (sketches folded at
//! snapshot-ingest time) — which is precisely why the two paths are
//! byte-identical whenever their sketches are. Every tie in the miner
//! breaks on ascending install ID, every intermediate collection is
//! B-tree-ordered, and the only floats (`density`, Jaccard thresholds)
//! are exact ratios of small integers compared with the same operations
//! on both paths.

use crate::lsh::{candidate_pairs, LSH_BANDS, LSH_ROWS};
use crate::sketch::CampaignSketch;
use racket_obs::Registry;
use racket_text::{NearDupIndex, TextSketch};
use racket_types::metrics::keys;
use racket_types::{AppId, InstallId};
use std::collections::{BTreeMap, BTreeSet};

/// Detector thresholds. The defaults are tuned at test scale so burst
/// campaigns are recovered with ≥ 0.9 recall while a campaign-free fleet
/// mines zero clusters (both pinned by `tests/conformance.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Two events on the same app count as co-occurring when their
    /// timestamps differ by at most this many seconds.
    pub window_secs: u64,
    /// Minimum number of distinct co-occurring apps for an edge.
    pub min_co_apps: usize,
    /// Minimum exact shingle Jaccard for an edge.
    pub min_jaccard: f64,
    /// Minimum devices in a reported campaign.
    pub min_cluster: usize,
    /// Minimum internal edge density (`2e / n(n−1)`) of a reported
    /// campaign — the quasi-clique relaxation.
    pub min_density: f64,
    /// Maximum SimHash Hamming distance for a verified near-duplicate
    /// review pair in the text candidate source
    /// ([`detect_with_text`]). Campaign templates are shared verbatim or
    /// with a one-word twist, so verbatim copies land at distance 0 and
    /// a small allowance covers whitespace/casing drift.
    pub text_max_hamming: u32,
    /// Minimum distinct apps on which two installs must share verified
    /// near-duplicate reviews before a text edge is admitted — the text
    /// analog of `min_co_apps` (one shared phrase on one app is organic
    /// review convergence, not coordination).
    pub text_min_co_apps: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window_secs: 21_600,
            min_co_apps: 2,
            min_jaccard: 0.10,
            min_cluster: 3,
            min_density: 0.5,
            text_max_hamming: 6,
            text_min_co_apps: 2,
        }
    }
}

/// One mined device group.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedCampaign {
    /// Member installs, ascending.
    pub devices: Vec<InstallId>,
    /// Inferred target apps: apps co-occurring on at least half of the
    /// group's internal edges, ascending.
    pub apps: Vec<AppId>,
    /// Internal co-occurrence edges among the members.
    pub n_edges: u64,
    /// Internal edge density `2e / n(n−1)`.
    pub density: f64,
}

/// The full detector output. `PartialEq` compares every field (densities
/// are produced by identical integer-ratio computations on both detector
/// paths, so float equality is exact there); [`CampaignReport::fingerprint`]
/// renders a canonical byte string for the differential harness.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignReport {
    /// Mined campaigns, ascending by first member install.
    pub campaigns: Vec<DetectedCampaign>,
    /// Device pairs proposed by LSH banding.
    pub n_candidate_pairs: u64,
    /// Verified edges in the mining graph: candidate pairs that passed
    /// Jaccard + co-occurrence scoring, unioned with text edges when the
    /// text candidate source ran.
    pub n_edges: u64,
    /// Cross-owner review pairs proposed by SimHash banding (zero when
    /// the detector ran without text sketches).
    pub n_text_candidate_pairs: u64,
    /// Install pairs admitted as edges by the text candidate source:
    /// verified near-duplicate reviews on ≥ `text_min_co_apps` shared
    /// apps (zero when the detector ran without text sketches).
    pub n_text_edges: u64,
}

impl CampaignReport {
    /// Canonical string rendering (densities as raw bits) — byte-identical
    /// iff the reports are identical.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "candidates={} edges={} campaigns={}",
            self.n_candidate_pairs,
            self.n_edges,
            self.campaigns.len()
        );
        // Rendered only when the text source actually proposed something,
        // so text-off fingerprints are byte-identical to the pre-text
        // pins.
        if self.n_text_candidate_pairs != 0 || self.n_text_edges != 0 {
            let _ = writeln!(
                out,
                "text_candidates={} text_edges={}",
                self.n_text_candidate_pairs, self.n_text_edges
            );
        }
        for c in &self.campaigns {
            let _ = writeln!(
                out,
                "devices={:?} apps={:?} n_edges={} density={:016x}",
                c.devices,
                c.apps,
                c.n_edges,
                c.density.to_bits()
            );
        }
        out
    }
}

/// Distinct apps on which both devices have events within `window_secs`.
/// Inputs are per-app sorted time lists; the scan is a two-pointer merge
/// on apps and, per shared app, a two-pointer gap check on times.
fn co_occurring_apps(
    a: &[(AppId, Vec<u64>)],
    b: &[(AppId, Vec<u64>)],
    window_secs: u64,
) -> Vec<AppId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (ta, tb) = (&a[i].1, &b[j].1);
                let (mut x, mut y) = (0, 0);
                while x < ta.len() && y < tb.len() {
                    let gap = ta[x].abs_diff(tb[y]);
                    if gap <= window_secs {
                        out.push(a[i].0);
                        break;
                    }
                    if ta[x] < tb[y] {
                        x += 1;
                    } else {
                        y += 1;
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Group a sketch's event set into per-app ascending time lists.
fn per_app_times(sketch: &CampaignSketch) -> Vec<(AppId, Vec<u64>)> {
    let mut out: Vec<(AppId, Vec<u64>)> = Vec::new();
    for (app, t) in sketch.events() {
        match out.last_mut() {
            Some((a, times)) if *a == app => times.push(t.as_secs()),
            _ => out.push((app, vec![t.as_secs()])),
        }
    }
    out
}

/// Run the full detector over per-device sketches.
///
/// `inputs` may arrive in any order (they are sorted by install ID
/// internally); install IDs must be unique. `obs`, when present, gets
/// `campaign/lsh`, `campaign/score` and `campaign/mine` spans.
///
/// Equivalent to [`detect_with_text`] with no text sketches.
pub fn detect(
    inputs: &[(InstallId, &CampaignSketch)],
    cfg: &DetectorConfig,
    obs: Option<&Registry>,
) -> CampaignReport {
    detect_with_text(inputs, &[], cfg, obs)
}

/// Run the full detector with the review-text candidate source enabled.
///
/// In addition to the LSH/co-occurrence pipeline of [`detect`], every
/// review SimHash from `texts` is inserted into a [`NearDupIndex`] under
/// the owner key `(install-order-index << 32) | app`, so within-install
/// near-duplicates (one worker's own template reuse) can never pair.
/// Verified cross-install pairs on ≥ [`DetectorConfig::text_min_co_apps`]
/// shared apps become extra edges in the mining graph — a second
/// candidate source that catches stealth/drip campaigns whose install
/// times are too dispersed for temporal co-occurrence alone.
///
/// Text entries whose install is absent from `inputs` (or has an empty
/// campaign sketch) are ignored; with `texts` empty the result is
/// bit-identical to [`detect`], text counters zero.
pub fn detect_with_text(
    inputs: &[(InstallId, &CampaignSketch)],
    texts: &[(InstallId, &TextSketch)],
    cfg: &DetectorConfig,
    obs: Option<&Registry>,
) -> CampaignReport {
    // Canonical order: ascending install ID; empty sketches cannot form
    // pairs (and would spuriously collide in every LSH band).
    let mut order: Vec<&(InstallId, &CampaignSketch)> =
        inputs.iter().filter(|(_, s)| !s.is_empty()).collect();
    order.sort_by_key(|(id, _)| *id);
    for w in order.windows(2) {
        assert!(w[0].0 != w[1].0, "duplicate install id in detector input");
    }

    let pairs = {
        let _g = obs.map(|r| r.span(keys::SPAN_CAMPAIGN_LSH));
        let sigs: Vec<&[u64]> = order.iter().map(|(_, s)| s.signature()).collect();
        candidate_pairs(&sigs, LSH_BANDS, LSH_ROWS)
    };

    // Score candidates: exact Jaccard over shingles + temporal
    // co-occurrence over the event sets.
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut edge_apps: BTreeMap<(usize, usize), Vec<AppId>> = BTreeMap::new();
    {
        let _g = obs.map(|r| r.span(keys::SPAN_CAMPAIGN_SCORE));
        let times: Vec<Vec<(AppId, Vec<u64>)>> =
            order.iter().map(|(_, s)| per_app_times(s)).collect();
        for &(i, j) in &pairs {
            if order[i].1.exact_jaccard(order[j].1) < cfg.min_jaccard {
                continue;
            }
            let co = co_occurring_apps(&times[i], &times[j], cfg.window_secs);
            if co.len() >= cfg.min_co_apps {
                adj.entry(i).or_default().insert(j);
                adj.entry(j).or_default().insert(i);
                edge_apps.insert((i, j), co);
            }
        }
    }

    // Text candidate source: near-duplicate reviews across installs.
    let mut n_text_candidate_pairs = 0u64;
    let mut n_text_edges = 0u64;
    if !texts.is_empty() {
        let _g = obs.map(|r| r.span(keys::SPAN_CAMPAIGN_TEXT));
        let code: BTreeMap<InstallId, usize> = order
            .iter()
            .enumerate()
            .map(|(i, &&(id, _))| (id, i))
            .collect();
        let mut index = NearDupIndex::new();
        for (id, sketch) in texts {
            let Some(&i) = code.get(id) else { continue };
            for row in sketch.rows() {
                index.insert(((i as u64) << 32) | u64::from(row.app), row.simhash);
            }
        }
        let scan = index.scan(cfg.text_max_hamming);
        n_text_candidate_pairs = scan.n_candidates as u64;
        // Fold verified owner pairs down to install pairs, keeping only
        // same-app matches (a shared phrase across *different* apps says
        // nothing about coordinated promotion of either).
        let mut shared: BTreeMap<(usize, usize), BTreeSet<AppId>> = BTreeMap::new();
        for &(a, b) in &scan.pairs {
            let (ia, app_a) = ((a >> 32) as usize, (a & 0xFFFF_FFFF) as u32);
            let (ib, app_b) = ((b >> 32) as usize, (b & 0xFFFF_FFFF) as u32);
            if ia == ib || app_a != app_b {
                continue;
            }
            let key = if ia < ib { (ia, ib) } else { (ib, ia) };
            shared.entry(key).or_default().insert(AppId(app_a));
        }
        for ((i, j), apps) in shared {
            if apps.len() >= cfg.text_min_co_apps {
                n_text_edges += 1;
                adj.entry(i).or_default().insert(j);
                adj.entry(j).or_default().insert(i);
                let entry = edge_apps.entry((i, j)).or_default();
                for app in apps {
                    if !entry.contains(&app) {
                        entry.push(app);
                    }
                }
                entry.sort();
            }
        }
    }
    let n_edges = edge_apps.len() as u64;

    let _g = obs.map(|r| r.span(keys::SPAN_CAMPAIGN_MINE));
    let mut campaigns = Vec::new();
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    loop {
        // Seed: the live node with the highest degree (ties: smallest
        // index, i.e. smallest install ID).
        let seed = adj
            .iter()
            .filter(|(n, nbrs)| !dead.contains(n) && !nbrs.is_empty())
            .max_by(|(na, a), (nb, b)| a.len().cmp(&b.len()).then(nb.cmp(na)))
            .map(|(n, _)| *n);
        let Some(seed) = seed else { break };

        // Greedy quasi-clique growth: repeatedly add the candidate with
        // the most links into the cluster while density stays above the
        // floor.
        let mut cluster: BTreeSet<usize> = BTreeSet::from([seed]);
        let mut internal_edges = 0u64;
        let mut candidates: BTreeSet<usize> = adj[&seed].clone();
        loop {
            let best = candidates
                .iter()
                .map(|&c| {
                    let links = adj[&c].intersection(&cluster).count() as u64;
                    (links, std::cmp::Reverse(c))
                })
                .max()
                .filter(|(links, _)| *links > 0);
            let Some((links, std::cmp::Reverse(best))) = best else {
                break;
            };
            let n = (cluster.len() + 1) as u64;
            let density = 2.0 * (internal_edges + links) as f64 / (n * (n - 1)) as f64;
            if density < cfg.min_density {
                break;
            }
            cluster.insert(best);
            internal_edges += links;
            candidates.remove(&best);
            candidates.extend(adj[&best].difference(&cluster));
        }

        if cluster.len() >= cfg.min_cluster {
            let n = cluster.len() as u64;
            let density = 2.0 * internal_edges as f64 / (n * (n - 1)) as f64;
            // Target apps: co-occurring on at least half the internal
            // edges (majority vote across the mined group).
            let members: Vec<usize> = cluster.iter().copied().collect();
            let mut app_votes: BTreeMap<AppId, u64> = BTreeMap::new();
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if let Some(apps) = edge_apps.get(&(i, j)) {
                        for &app in apps {
                            *app_votes.entry(app).or_default() += 1;
                        }
                    }
                }
            }
            let quorum = internal_edges.div_ceil(2).max(1);
            let apps: Vec<AppId> = app_votes
                .iter()
                .filter(|(_, &v)| v >= quorum)
                .map(|(&a, _)| a)
                .collect();
            campaigns.push(DetectedCampaign {
                devices: members.iter().map(|&i| order[i].0).collect(),
                apps,
                n_edges: internal_edges,
                density,
            });
            // Remove the mined members from the graph.
            for &m in &members {
                adj.remove(&m);
            }
            for nbrs in adj.values_mut() {
                for &m in &members {
                    nbrs.remove(&m);
                }
            }
        } else {
            // This seed cannot anchor a large-enough group; retire it as
            // a seed (it may still join a later cluster as a member).
            dead.insert(seed);
        }
    }

    campaigns.sort_by_key(|c| c.devices[0]);
    CampaignReport {
        campaigns,
        n_candidate_pairs: pairs.len() as u64,
        n_edges,
        n_text_candidate_pairs,
        n_text_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::SimTime;

    fn sketch(events: &[(u32, u64)]) -> CampaignSketch {
        let mut s = CampaignSketch::default();
        for &(app, hours) in events {
            s.observe(AppId(app), SimTime::from_hours(hours));
        }
        s
    }

    /// Three lockstep devices + one loner: the trio is mined, the loner
    /// is not, and input order is irrelevant.
    #[test]
    fn mines_a_lockstep_trio() {
        let lockstep = [(10u32, 5u64), (11, 6), (12, 7)];
        let trio: Vec<CampaignSketch> = (0..3)
            .map(|d| {
                let mut ev: Vec<(u32, u64)> = lockstep.to_vec();
                ev.push((100 + d, 24 * (d as u64 + 1))); // organic noise
                sketch(&ev)
            })
            .collect();
        let loner = sketch(&[(50, 5), (51, 200), (52, 300)]);

        let mut inputs: Vec<(InstallId, &CampaignSketch)> = trio
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_002 - i as u64), s))
            .collect();
        inputs.push((InstallId(1_000_000_003), &loner));

        let report = detect(&inputs, &DetectorConfig::default(), None);
        assert_eq!(report.campaigns.len(), 1);
        let c = &report.campaigns[0];
        assert_eq!(
            c.devices,
            vec![
                InstallId(1_000_000_000),
                InstallId(1_000_000_001),
                InstallId(1_000_000_002)
            ]
        );
        assert_eq!(c.apps, vec![AppId(10), AppId(11), AppId(12)]);
        assert_eq!(c.n_edges, 3);
        assert_eq!(c.density, 1.0);
        // Known answer, computed before the MinHash kernels were merged.
        assert_eq!(
            report.fingerprint(),
            "candidates=3 edges=3 campaigns=1\n\
             devices=[InstallId(1000000000), InstallId(1000000001), InstallId(1000000002)] \
             apps=[AppId(10), AppId(11), AppId(12)] n_edges=3 density=3ff0000000000000\n"
        );

        let mut reversed = inputs.clone();
        reversed.reverse();
        assert_eq!(detect(&reversed, &DetectorConfig::default(), None), report);
    }

    #[test]
    fn uncoordinated_devices_mine_nothing() {
        let sketches: Vec<CampaignSketch> = (0..6u32)
            .map(|d| {
                sketch(&[
                    (d * 10, d as u64 * 50),
                    (d * 10 + 1, d as u64 * 50 + 100),
                    (d * 10 + 2, d as u64 * 50 + 200),
                ])
            })
            .collect();
        let inputs: Vec<(InstallId, &CampaignSketch)> = sketches
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_000 + i as u64), s))
            .collect();
        let report = detect(&inputs, &DetectorConfig::default(), None);
        assert!(report.campaigns.is_empty());
        assert_eq!(report.n_edges, 0);
    }

    /// Three workers drip their installs days apart (no temporal
    /// co-occurrence) but paste the same review template on two shared
    /// target apps: the event-only detector sees nothing, the text
    /// candidate source recovers the trio.
    #[test]
    fn text_candidates_recover_a_dispersed_campaign() {
        use racket_text::TextSketch;
        let sketches: Vec<CampaignSketch> = (0..3u64)
            .map(|d| sketch(&[(10, d * 200), (11, d * 200 + 100), (30 + d as u32, d * 90)]))
            .collect();
        let texts: Vec<TextSketch> = (0..3u64)
            .map(|d| {
                let mut t = TextSketch::default();
                t.observe(10, 1_000 + d, d * 720_000, 5, "great app works perfectly");
                t.observe(
                    11,
                    1_000 + d,
                    d * 720_000 + 60,
                    5,
                    "love the new design and speed",
                );
                t
            })
            .collect();
        let inputs: Vec<(InstallId, &CampaignSketch)> = sketches
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_000 + i as u64), s))
            .collect();
        let text_inputs: Vec<(InstallId, &TextSketch)> = texts
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_000 + i as u64), s))
            .collect();

        let cfg = DetectorConfig::default();
        let without = detect(&inputs, &cfg, None);
        assert!(without.campaigns.is_empty());
        assert_eq!(without.n_text_candidate_pairs, 0);
        // Empty text slice is bit-identical to the event-only detector.
        assert_eq!(detect_with_text(&inputs, &[], &cfg, None), without);

        let with = detect_with_text(&inputs, &text_inputs, &cfg, None);
        assert_eq!(with.campaigns.len(), 1);
        assert_eq!(
            with.campaigns[0].devices,
            vec![
                InstallId(1_000_000_000),
                InstallId(1_000_000_001),
                InstallId(1_000_000_002)
            ]
        );
        assert_eq!(with.campaigns[0].apps, vec![AppId(10), AppId(11)]);
        assert_eq!(with.n_text_edges, 3);
        assert!(with.n_text_candidate_pairs >= 3);
        assert!(with.fingerprint().contains("text_candidates="));
        assert!(!without.fingerprint().contains("text_candidates="));
    }

    /// A single shared phrase on a single app — organic convergence —
    /// stays below `text_min_co_apps` and admits no edge.
    #[test]
    fn one_shared_app_is_not_a_text_edge() {
        use racket_text::TextSketch;
        let a = sketch(&[(10, 5), (20, 50)]);
        let b = sketch(&[(10, 900), (21, 1_000)]);
        let c = sketch(&[(10, 2_000), (22, 2_100)]);
        let mut texts: Vec<TextSketch> = Vec::new();
        for d in 0..3u64 {
            let mut t = TextSketch::default();
            t.observe(10, 2_000 + d, d * 500_000, 5, "great app works perfectly");
            texts.push(t);
        }
        let sketches = [a, b, c];
        let inputs: Vec<(InstallId, &CampaignSketch)> = sketches
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_000 + i as u64), s))
            .collect();
        let text_inputs: Vec<(InstallId, &TextSketch)> = texts
            .iter()
            .enumerate()
            .map(|(i, s)| (InstallId(1_000_000_000 + i as u64), s))
            .collect();
        let report = detect_with_text(&inputs, &text_inputs, &DetectorConfig::default(), None);
        assert_eq!(report.n_text_edges, 0);
        assert!(report.n_text_candidate_pairs >= 3);
        assert!(report.campaigns.is_empty());
    }

    #[test]
    fn co_occurrence_respects_the_window() {
        let a = vec![(AppId(1), vec![0u64, 10_000]), (AppId(2), vec![50_000])];
        let b = vec![(AppId(1), vec![30_000u64]), (AppId(2), vec![90_000])];
        assert_eq!(co_occurring_apps(&a, &b, 21_600), vec![AppId(1)]);
        assert_eq!(co_occurring_apps(&a, &b, 40_000), vec![AppId(1), AppId(2)]);
        assert_eq!(co_occurring_apps(&a, &b, 100), Vec::<AppId>::new());
    }
}
