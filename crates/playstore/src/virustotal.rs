//! VirusTotal simulator.
//!
//! §6.4 analyses the hashes of apks installed on participant devices with
//! VirusTotal's 62 detection engines: 18,079 distinct hashes were queried,
//! 12,431 were available, 177 apps were flagged by more than one engine,
//! and a ≥ 7-flag threshold (above the 4 of Pendlebury et al.) marks the
//! "most malicious" samples of Figure 12.
//!
//! [`VirusTotalSim`] serves per-hash reports from the catalog's malware
//! ground truth, with a configurable availability gap (hashes the real
//! service had never seen).

use racket_types::ApkHash;
use std::collections::HashMap;

/// Number of detection engines VirusTotal ran in the study.
pub(crate) const VT_ENGINE_COUNT: u8 = 62;

/// The ≥-flags threshold used for Figure 12's "most malicious" samples.
pub const HIGH_CONFIDENCE_FLAGS: u8 = 7;

/// One VirusTotal report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VtReport {
    /// Number of engines (out of the 62) flagging the apk.
    pub flags: u8,
}

/// The simulated VirusTotal service.
///
/// Queries take `&self`, so the study's assembly phase can resolve
/// reports from several worker threads at once.
#[derive(Debug, Default, Clone)]
pub struct VirusTotalSim {
    reports: HashMap<ApkHash, VtReport>,
    unavailable: std::collections::HashSet<ApkHash>,
}

impl VirusTotalSim {
    /// Build from the catalog's malware ground truth: every known hash gets
    /// a clean (0-flag) report, the listed malware hashes get their flag
    /// counts, and `unavailable` hashes return `None` (the 18,079 − 12,431
    /// coverage gap).
    pub fn new(
        all_hashes: impl IntoIterator<Item = ApkHash>,
        malware: &[(ApkHash, u8)],
        unavailable: impl IntoIterator<Item = ApkHash>,
    ) -> Self {
        let mut reports = HashMap::new();
        for h in all_hashes {
            reports.insert(h, VtReport { flags: 0 });
        }
        for &(h, flags) in malware {
            reports.insert(
                h,
                VtReport {
                    flags: flags.min(VT_ENGINE_COUNT),
                },
            );
        }
        VirusTotalSim {
            reports,
            unavailable: unavailable.into_iter().collect(),
        }
    }

    /// Query one hash. `None` means VirusTotal has no report for it.
    pub fn query(&self, hash: ApkHash) -> Option<VtReport> {
        if self.unavailable.contains(&hash) {
            return None;
        }
        self.reports.get(&hash).copied()
    }
}

#[cfg(test)]
impl VtReport {
    /// Whether the report crosses the Figure 12 high-confidence threshold.
    pub(crate) fn is_high_confidence_malware(&self) -> bool {
        self.flags >= HIGH_CONFIDENCE_FLAGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(b: u8) -> ApkHash {
        ApkHash([b; 16])
    }

    #[test]
    fn clean_flagged_and_missing() {
        let vt = VirusTotalSim::new([h(1), h(2), h(3)], &[(h(2), 9)], [h(3)]);
        assert_eq!(vt.query(h(1)), Some(VtReport { flags: 0 }));
        let m = vt.query(h(2)).unwrap();
        assert_eq!(m.flags, 9);
        assert!(m.is_high_confidence_malware());
        assert_eq!(vt.query(h(3)), None, "coverage gap");
        assert_eq!(vt.query(h(9)), None, "never-seen hash");
        let available = [h(1), h(2), h(3)]
            .into_iter()
            .filter(|&x| vt.query(x).is_some());
        assert_eq!(available.count(), 2);
    }

    #[test]
    fn threshold_matches_figure_12() {
        assert!(!VtReport { flags: 6 }.is_high_confidence_malware());
        assert!(VtReport { flags: 7 }.is_high_confidence_malware());
    }

    #[test]
    fn flags_clamped_to_engine_count() {
        let vt = VirusTotalSim::new([h(1)], &[(h(1), 200)], []);
        assert_eq!(vt.query(h(1)).unwrap().flags, VT_ENGINE_COUNT);
    }
}
