//! Identifiers used across the measurement platform.
//!
//! §3 of the paper describes three identifiers carried by snapshots — the
//! 10-digit *install ID* generated by the app at sign-in, the 6-digit
//! *participant ID* assigned at recruitment, and the *Android ID* of the
//! device — plus, server-side, the Google ID that the Gmail-search side
//! channel maps an e-mail address to (§5). A physical device has no
//! identifier of its own: the simulator knows it by fleet index, and the
//! collection pipeline must *recover* which installs share one from the
//! other three via Appendix A's fingerprinting.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! newtype_id {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw numeric value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

newtype_id!(
    /// 6-digit participant code sent at recruitment over a side channel.
    ///
    /// Gates data collection: the app collects nothing until the code is
    /// entered. The same participant can install the app on several devices,
    /// and (Appendix A) several participants can share one device.
    ParticipantId,
    u32,
    "p-"
);

newtype_id!(
    /// 10-digit random identifier generated by the app at each install.
    ///
    /// A fresh one is produced on every (re-)install of RacketStore, so one
    /// device can be responsible for many install IDs.
    InstallId,
    u64,
    "inst-"
);

newtype_id!(
    /// The `Settings.Secure.ANDROID_ID` of a device.
    ///
    /// Stable per device, but missing from some snapshots due to model
    /// incompatibilities (Appendix A), which is why fingerprinting cannot
    /// rely on it alone.
    AndroidId,
    u64,
    "aid-"
);

newtype_id!(
    /// Server-side Google identity of a Gmail account.
    ///
    /// Obtained by the Google-ID crawler from the Gmail search side channel
    /// (§5); joins registered accounts to Play Store reviews.
    GoogleId,
    u64,
    "gid-"
);

impl ParticipantId {
    /// Whether the raw value is a valid 6-digit code (100000..=999999).
    pub fn is_valid(self) -> bool {
        (100_000..=999_999).contains(&self.0)
    }
}

impl InstallId {
    /// Whether the raw value fits in 10 decimal digits.
    pub fn is_valid(self) -> bool {
        self.0 >= 1_000_000_000 && self.0 <= 9_999_999_999
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(ParticipantId(123456).to_string(), "p-123456");
        assert_eq!(InstallId(1234567890).to_string(), "inst-1234567890");
        assert_eq!(AndroidId(42).to_string(), "aid-42");
        assert_eq!(GoogleId(9).to_string(), "gid-9");
    }

    #[test]
    fn participant_id_validity() {
        assert!(ParticipantId(100_000).is_valid());
        assert!(ParticipantId(999_999).is_valid());
        assert!(!ParticipantId(99_999).is_valid());
        assert!(!ParticipantId(1_000_000).is_valid());
    }

    #[test]
    fn install_id_validity() {
        assert!(InstallId(1_000_000_000).is_valid());
        assert!(InstallId(9_999_999_999).is_valid());
        assert!(!InstallId(999_999_999).is_valid());
        assert!(!InstallId(10_000_000_000).is_valid());
    }

    #[test]
    fn ordering_and_conversion() {
        let a: ParticipantId = 1u32.into();
        let b: ParticipantId = 2u32.into();
        assert!(a < b);
        assert_eq!(a.raw(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let id = GoogleId(123_456_789);
        let json = serde_json::to_string(&id).unwrap();
        let back: GoogleId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }
}
