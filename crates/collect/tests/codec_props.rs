//! Property tests for the delivery fast-path kernels.
//!
//! * The binary snapshot codec must round-trip *every* representable
//!   snapshot.
//! * A reused LZSS workspace must be a pure optimization: its output is
//!   byte-for-byte the output of a fresh compressor.
//! * `deserialize_file` must reject truncated or corrupted input with an
//!   error, never a panic.

use proptest::prelude::*;
use racket_collect::collector::SnapshotCollector;
use racket_collect::lzss;
use racket_types::{
    AccountId, AccountService, AndroidId, ApkHash, AppId, FastSnapshot, GoogleId, InstallDelta,
    InstallId, InstalledApp, ParticipantId, Permission, PermissionProfile, Rating,
    RegisteredAccount, ReviewEvent, SimTime, SlowSnapshot, Snapshot,
};

fn permission() -> impl Strategy<Value = Permission> {
    (0..Permission::ALL.len()).prop_map(|i| Permission::ALL[i])
}

fn profile() -> impl Strategy<Value = PermissionProfile> {
    (
        proptest::collection::vec(permission(), 0..8),
        proptest::collection::vec(permission(), 0..4),
        proptest::collection::vec(permission(), 0..4),
    )
        .prop_map(|(requested, granted, denied)| PermissionProfile {
            requested: requested.into_iter().collect(),
            granted: granted.into_iter().collect(),
            denied: denied.into_iter().collect(),
        })
}

fn option_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn option_u32() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), any::<u32>()).prop_map(|(some, v)| some.then_some(v))
}

fn installed_app() -> impl Strategy<Value = InstalledApp> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>()),
        (profile(), any::<[u8; 16]>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((app, install_time, last_update), (permissions, hash), (stopped, preinstalled))| {
                InstalledApp {
                    app: AppId(app),
                    install_time: SimTime::from_secs(install_time),
                    last_update: SimTime::from_secs(last_update),
                    permissions,
                    apk_hash: ApkHash(hash),
                    stopped,
                    preinstalled,
                }
            },
        )
}

fn install_delta() -> impl Strategy<Value = InstallDelta> {
    prop_oneof![
        installed_app().prop_map(InstallDelta::Installed),
        any::<u32>().prop_map(|app| InstallDelta::Uninstalled { app: AppId(app) }),
    ]
}

fn account_service() -> impl Strategy<Value = AccountService> {
    (0usize..8, any::<u16>()).prop_map(|(pick, other)| match pick {
        0 => AccountService::Gmail,
        1 => AccountService::WhatsApp,
        2 => AccountService::Facebook,
        3 => AccountService::TikTok,
        4 => AccountService::DualSpace,
        5 => AccountService::Freelancer,
        6 => AccountService::Easypaisa,
        _ => AccountService::Other(other),
    })
}

fn account() -> impl Strategy<Value = RegisteredAccount> {
    (any::<u64>(), account_service(), option_u64()).prop_map(|(id, service, google_id)| {
        RegisteredAccount {
            id: AccountId(id),
            service,
            google_id: google_id.map(GoogleId),
        }
    })
}

fn review_event() -> impl Strategy<Value = ReviewEvent> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>(), 1u8..=5),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|((app, reviewer, time, stars), text)| ReviewEvent {
            app: AppId(app),
            reviewer: GoogleId(reviewer),
            time: SimTime::from_secs(time),
            rating: Rating::new(stars).expect("stars in 1..=5"),
            // Printable ASCII with occasional multi-byte UTF-8, so the
            // codec's length prefix counts bytes, not chars.
            text: text
                .into_iter()
                .map(|b| {
                    if b >= 240 {
                        'é'
                    } else {
                        char::from(32 + b % 95)
                    }
                })
                .collect(),
        })
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    let fast = (
        (any::<u64>(), any::<u32>(), any::<u64>()),
        (option_u32(), any::<bool>(), any::<u8>()),
        proptest::collection::vec(install_delta(), 0..5),
    )
        .prop_map(
            |((install, participant, time), (fg, screen_on, battery_pct), install_events)| {
                Snapshot::Fast(FastSnapshot {
                    install_id: InstallId(install),
                    participant_id: ParticipantId(participant),
                    time: SimTime::from_secs(time),
                    foreground_app: fg.map(AppId),
                    screen_on,
                    battery_pct,
                    install_events,
                })
            },
        );
    let slow = (
        (any::<u64>(), any::<u32>(), option_u64(), any::<u64>()),
        proptest::collection::vec(account(), 0..5),
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 0..8),
        proptest::collection::vec(review_event(), 0..4),
    )
        .prop_map(
            |((install, participant, android, time), accounts, save_mode, stopped, reviews)| {
                Snapshot::Slow(SlowSnapshot {
                    install_id: InstallId(install),
                    participant_id: ParticipantId(participant),
                    android_id: android.map(AndroidId),
                    time: SimTime::from_secs(time),
                    accounts,
                    save_mode,
                    stopped_apps: stopped.into_iter().map(AppId).collect(),
                    review_events: reviews,
                })
            },
        );
    prop_oneof![fast, slow]
}

proptest! {
    /// Binary encode → decode is the identity on any snapshot sequence.
    #[test]
    fn binary_codec_round_trips(snaps in proptest::collection::vec(snapshot(), 0..12)) {
        let mut file = Vec::new();
        for s in &snaps {
            SnapshotCollector::serialize_into(s, &mut file);
        }
        let decoded = SnapshotCollector::deserialize_file(&file).expect("round trip");
        prop_assert_eq!(decoded, snaps);
    }

    /// Workspace reuse is invisible in the output: compressing through a
    /// workspace dirtied by unrelated inputs yields bytes identical to a
    /// fresh compressor's, and both decompress back to the input.
    #[test]
    fn reused_workspace_output_is_byte_identical(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..2_048), 1..6
        )
    ) {
        let mut ws = lzss::Workspace::new();
        for data in &inputs {
            let pooled = ws.compress(data);
            let fresh = lzss::compress(data);
            prop_assert_eq!(&pooled, &fresh);
            prop_assert_eq!(&lzss::decompress(&pooled).expect("round trip"), data);
        }
    }

    /// Truncating a valid binary file anywhere inside a record must error,
    /// never panic. (Cuts at record boundaries are valid shorter files —
    /// including the boundary between a slow record's base body and its
    /// optional trailing review section, which decodes as a review-less
    /// record.)
    #[test]
    fn truncated_binary_errors_without_panic(
        snaps in proptest::collection::vec(snapshot(), 1..4),
        frac in 0.0f64..1.0,
    ) {
        let mut file = Vec::new();
        let mut boundaries = vec![0usize];
        for s in &snaps {
            if let Snapshot::Slow(slow) = s {
                if !slow.review_events.is_empty() {
                    // The review section is a backward-compatible suffix:
                    // cutting exactly where the base body ends yields a
                    // valid review-less record.
                    let mut stripped = slow.clone();
                    stripped.review_events.clear();
                    let mut base = Vec::new();
                    SnapshotCollector::serialize_into(&Snapshot::Slow(stripped), &mut base);
                    boundaries.push(file.len() + base.len());
                }
            }
            SnapshotCollector::serialize_into(s, &mut file);
            boundaries.push(file.len());
        }
        let cut = ((file.len() as f64) * frac) as usize;
        let result = SnapshotCollector::deserialize_file(&file[..cut]);
        if boundaries.contains(&cut) {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// Arbitrary garbage must decode to `Ok` (if it happens to be valid)
    /// or `Err`, never panic.
    #[test]
    fn garbage_input_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SnapshotCollector::deserialize_file(&data);
        // Force the binary path too, whatever the first byte was.
        let mut tagged = vec![racket_collect::codec::TAG_BINARY_V1];
        tagged.extend_from_slice(&data);
        let _ = SnapshotCollector::deserialize_file(&tagged);
    }
}
