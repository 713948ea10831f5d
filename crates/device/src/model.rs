//! Device models and manufacturers.
//!
//! §3 reports RacketStore compatibility with 298 device models from 28
//! manufacturers, the top five being Samsung, Huawei, Oppo, Xiaomi and
//! Vivo. The model matters to the reproduction because Appendix A observes
//! that some models fail to report an Android ID, which degrades snapshot
//! fingerprinting.

use serde::{Deserialize, Serialize};

/// The Android manufacturers seen in the study (top five named in §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are manufacturer names
pub enum Manufacturer {
    Samsung,
    Huawei,
    Oppo,
    Xiaomi,
    Vivo,
    Realme,
    Motorola,
    Nokia,
    OnePlus,
    Infinix,
    Tecno,
    Lenovo,
    Other,
}

/// A concrete device model.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Who makes it.
    pub manufacturer: Manufacturer,
    /// Marketing/model name, e.g. "SM-A105F".
    pub model: String,
    /// Android API level; RacketStore requires ≥ 21 (Lollipop) and targets
    /// 28 (Pie), per §3.
    pub api_level: u8,
    /// Whether this model reliably reports `ANDROID_ID` (Appendix A notes
    /// incompatibilities on some of the >24,000 model types).
    pub reports_android_id: bool,
}

impl DeviceModel {
    /// A generic compatible model for tests and defaults.
    pub fn generic() -> Self {
        DeviceModel {
            manufacturer: Manufacturer::Samsung,
            model: "SM-TEST0".to_string(),
            api_level: 28,
            reports_android_id: true,
        }
    }
}

#[cfg(test)]
impl DeviceModel {
    /// Minimum supported API level (Android 5, Lollipop).
    pub(crate) const MIN_API: u8 = 21;

    /// Whether RacketStore can run on this model at all.
    pub(crate) fn is_compatible(&self) -> bool {
        self.api_level >= Self::MIN_API
    }
}

#[cfg(test)]
impl Manufacturer {
    /// The top-5 manufacturers of §3, in reported order.
    pub(crate) const TOP5: [Manufacturer; 5] = [
        Manufacturer::Samsung,
        Manufacturer::Huawei,
        Manufacturer::Oppo,
        Manufacturer::Xiaomi,
        Manufacturer::Vivo,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top5_matches_paper() {
        assert_eq!(Manufacturer::TOP5.len(), 5);
        assert_eq!(Manufacturer::TOP5[0], Manufacturer::Samsung);
        assert_eq!(Manufacturer::TOP5[4], Manufacturer::Vivo);
    }

    #[test]
    fn compatibility_threshold() {
        let mut m = DeviceModel::generic();
        assert!(m.is_compatible());
        m.api_level = 20;
        assert!(!m.is_compatible());
        m.api_level = 21;
        assert!(m.is_compatible());
    }
}
