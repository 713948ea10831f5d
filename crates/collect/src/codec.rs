//! Compact binary line codec for snapshot accumulation files.
//!
//! §3 buffers snapshots into accumulation files before compression and
//! upload. The original implementation wrote one JSON object per line
//! (~150 bytes per fast snapshot); this codec packs the same fields into
//! a length-prefixed binary record (~40 bytes), cutting both the bytes
//! the LZSS stage must chew through and the per-record parse cost on the
//! server by 3–4×.
//!
//! ## Record format
//!
//! ```text
//! ┌────────┬──────────────┬──────────────────┐
//! │ 0xB1   │ len: u32 LE  │ body (len bytes) │
//! └────────┴──────────────┴──────────────────┘
//! ```
//!
//! The leading tag byte doubles as the format version marker: a record
//! that starts with anything else is refused as corrupt, and a future
//! `0xB2` body layout can dispatch on it. All multi-byte integers are
//! little-endian; `Option` fields are a presence byte (0/1) followed by
//! the value; `Vec` fields are a `u32` count followed by the elements.
//!
//! The body starts with a kind byte (0 = fast, 1 = slow) and then the
//! snapshot fields in declaration order. `Permission` is encoded as its
//! discriminant (an index into [`Permission::ALL`]); `AccountService`
//! unit variants are a 1-byte tag in declaration order with
//! `Other(tag)` escaping to `0xFF` + `u16`.
//!
//! Every decoder validates: truncation, unknown tags, out-of-range
//! discriminants and trailing garbage all return [`DecodeError`], never
//! panic — the chaos harness feeds this path corrupted payloads.

use racket_types::{
    AccountId, AccountService, AndroidId, ApkHash, AppId, FastSnapshot, GoogleId, InstallDelta,
    InstallId, InstalledApp, ParticipantId, Permission, PermissionProfile, Rating,
    RegisteredAccount, ReviewEvent, SimTime, SlowSnapshot, Snapshot,
};

/// Record tag: binary body layout, version 1.
pub const TAG_BINARY_V1: u8 = 0xB1;

const KIND_FAST: u8 = 0;
const KIND_SLOW: u8 = 1;
const DELTA_INSTALLED: u8 = 0;
const DELTA_UNINSTALLED: u8 = 1;
const SERVICE_OTHER: u8 = 0xFF;

/// Why a snapshot file (or record) failed to decode.
#[derive(Debug)]
pub enum DecodeError {
    /// A record or field was cut off mid-stream.
    Truncated,
    /// A structurally invalid value (unknown tag, bad discriminant,
    /// trailing bytes); the payload names the violation.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "snapshot record truncated"),
            DecodeError::Corrupt(what) => write!(f, "snapshot record corrupt: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------- encode

#[inline]
fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

#[inline]
fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn put_permissions(out: &mut Vec<u8>, perms: &[Permission]) {
    out.extend_from_slice(&(perms.len() as u32).to_le_bytes());
    for &p in perms {
        out.push(p as u8);
    }
}

fn put_installed_app(out: &mut Vec<u8>, app: &InstalledApp) {
    out.extend_from_slice(&app.app.raw().to_le_bytes());
    out.extend_from_slice(&app.install_time.as_secs().to_le_bytes());
    out.extend_from_slice(&app.last_update.as_secs().to_le_bytes());
    put_permissions(out, &app.permissions.requested);
    put_permissions(out, &app.permissions.granted);
    put_permissions(out, &app.permissions.denied);
    out.extend_from_slice(app.apk_hash.bytes());
    out.push(app.stopped as u8);
    out.push(app.preinstalled as u8);
}

/// Append one snapshot as a self-delimiting binary record.
///
/// Appends (never clears), so the per-lane accumulation file is built by
/// encoding each polled snapshot straight into it — no intermediate
/// per-snapshot `Vec`.
pub fn encode_record(snapshot: &Snapshot, out: &mut Vec<u8>) {
    out.push(TAG_BINARY_V1);
    let len_pos = out.len();
    out.extend_from_slice(&[0; 4]); // length backpatched below
    match snapshot {
        Snapshot::Fast(s) => {
            out.push(KIND_FAST);
            out.extend_from_slice(&s.install_id.raw().to_le_bytes());
            out.extend_from_slice(&s.participant_id.raw().to_le_bytes());
            out.extend_from_slice(&s.time.as_secs().to_le_bytes());
            put_opt_u32(out, s.foreground_app.map(|a| a.raw()));
            out.push(s.screen_on as u8);
            out.push(s.battery_pct);
            out.extend_from_slice(&(s.install_events.len() as u32).to_le_bytes());
            for event in &s.install_events {
                match event {
                    InstallDelta::Installed(app) => {
                        out.push(DELTA_INSTALLED);
                        put_installed_app(out, app);
                    }
                    InstallDelta::Uninstalled { app } => {
                        out.push(DELTA_UNINSTALLED);
                        out.extend_from_slice(&app.raw().to_le_bytes());
                    }
                }
            }
        }
        Snapshot::Slow(s) => {
            out.push(KIND_SLOW);
            out.extend_from_slice(&s.install_id.raw().to_le_bytes());
            out.extend_from_slice(&s.participant_id.raw().to_le_bytes());
            put_opt_u64(out, s.android_id.map(|a| a.raw()));
            out.extend_from_slice(&s.time.as_secs().to_le_bytes());
            out.extend_from_slice(&(s.accounts.len() as u32).to_le_bytes());
            for account in &s.accounts {
                out.extend_from_slice(&account.id.raw().to_le_bytes());
                match account.service {
                    AccountService::Other(tag) => {
                        out.push(SERVICE_OTHER);
                        out.extend_from_slice(&tag.to_le_bytes());
                    }
                    service => out.push(service_tag(service)),
                }
                put_opt_u64(out, account.google_id.map(|g| g.raw()));
            }
            out.push(s.save_mode as u8);
            out.extend_from_slice(&(s.stopped_apps.len() as u32).to_le_bytes());
            for app in &s.stopped_apps {
                out.extend_from_slice(&app.raw().to_le_bytes());
            }
            // Review section, appended only when non-empty: review-off
            // records stay byte-identical to the pre-review layout, and
            // the decoder reads the section iff body bytes remain.
            if !s.review_events.is_empty() {
                out.extend_from_slice(&(s.review_events.len() as u32).to_le_bytes());
                for review in &s.review_events {
                    out.extend_from_slice(&review.app.raw().to_le_bytes());
                    out.extend_from_slice(&review.reviewer.raw().to_le_bytes());
                    out.extend_from_slice(&review.time.as_secs().to_le_bytes());
                    out.push(review.rating.stars());
                    out.extend_from_slice(&(review.text.len() as u32).to_le_bytes());
                    out.extend_from_slice(review.text.as_bytes());
                }
            }
        }
    }
    let body_len = (out.len() - len_pos - 4) as u32;
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_le_bytes());
}

fn service_tag(service: AccountService) -> u8 {
    use AccountService::*;
    match service {
        Gmail => 0,
        WhatsApp => 1,
        Facebook => 2,
        Telegram => 3,
        Instagram => 4,
        Twitter => 5,
        TikTok => 6,
        Snapchat => 7,
        Viber => 8,
        Imo => 9,
        Skype => 10,
        LinkedIn => 11,
        Outlook => 12,
        Yahoo => 13,
        Samsung => 14,
        Xiaomi => 15,
        Huawei => 16,
        DualSpace => 17,
        Freelancer => 18,
        Easypaisa => 19,
        Other(_) => unreachable!("Other is escaped before dispatch"),
    }
}

fn service_from_tag(tag: u8, r: &mut Reader<'_>) -> Result<AccountService, DecodeError> {
    use AccountService::*;
    Ok(match tag {
        0 => Gmail,
        1 => WhatsApp,
        2 => Facebook,
        3 => Telegram,
        4 => Instagram,
        5 => Twitter,
        6 => TikTok,
        7 => Snapchat,
        8 => Viber,
        9 => Imo,
        10 => Skype,
        11 => LinkedIn,
        12 => Outlook,
        13 => Yahoo,
        14 => Samsung,
        15 => Xiaomi,
        16 => Huawei,
        17 => DualSpace,
        18 => Freelancer,
        19 => Easypaisa,
        SERVICE_OTHER => Other(r.u16()?),
        _ => return Err(DecodeError::Corrupt("unknown account service tag")),
    })
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over a record body.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool byte out of range")),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.u32()?)
        } else {
            None
        })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Element count for a Vec field, sanity-capped against the remaining
    /// bytes so corrupt counts cannot trigger huge preallocations.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.data.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn permissions(&mut self) -> Result<Vec<Permission>, DecodeError> {
        let n = self.count(1)?;
        let mut perms = Vec::with_capacity(n);
        for _ in 0..n {
            let i = self.u8()? as usize;
            let p = *Permission::ALL
                .get(i)
                .ok_or(DecodeError::Corrupt("permission discriminant out of range"))?;
            perms.push(p);
        }
        Ok(perms)
    }

    fn installed_app(&mut self) -> Result<InstalledApp, DecodeError> {
        Ok(InstalledApp {
            app: AppId(self.u32()?),
            install_time: SimTime::from_secs(self.u64()?),
            last_update: SimTime::from_secs(self.u64()?),
            permissions: PermissionProfile {
                requested: self.permissions()?,
                granted: self.permissions()?,
                denied: self.permissions()?,
            },
            apk_hash: ApkHash(self.take(16)?.try_into().expect("16 bytes")),
            stopped: self.bool()?,
            preinstalled: self.bool()?,
        })
    }

    /// Whether unread body bytes remain (optional trailing sections).
    fn has_remaining(&self) -> bool {
        self.pos < self.data.len()
    }

    fn review_event(&mut self) -> Result<ReviewEvent, DecodeError> {
        let app = AppId(self.u32()?);
        let reviewer = GoogleId(self.u64()?);
        let time = SimTime::from_secs(self.u64()?);
        let rating =
            Rating::new(self.u8()?).ok_or(DecodeError::Corrupt("review rating out of range"))?;
        let len = self.count(1)?;
        let text = std::str::from_utf8(self.take(len)?)
            .map_err(|_| DecodeError::Corrupt("review text is not UTF-8"))?
            .to_string();
        Ok(ReviewEvent {
            app,
            reviewer,
            time,
            rating,
            text,
        })
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt("trailing bytes after record body"))
        }
    }
}

/// Decode one record body (the bytes after the tag + length prefix).
fn decode_body(body: &[u8]) -> Result<Snapshot, DecodeError> {
    let mut r = Reader::new(body);
    let snapshot = match r.u8()? {
        KIND_FAST => {
            let install_id = InstallId(r.u64()?);
            let participant_id = ParticipantId(r.u32()?);
            let time = SimTime::from_secs(r.u64()?);
            let foreground_app = r.opt_u32()?.map(AppId);
            let screen_on = r.bool()?;
            let battery_pct = r.u8()?;
            let n_events = r.count(5)?;
            let mut install_events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                install_events.push(match r.u8()? {
                    DELTA_INSTALLED => InstallDelta::Installed(r.installed_app()?),
                    DELTA_UNINSTALLED => InstallDelta::Uninstalled {
                        app: AppId(r.u32()?),
                    },
                    _ => return Err(DecodeError::Corrupt("unknown install-delta tag")),
                });
            }
            Snapshot::Fast(FastSnapshot {
                install_id,
                participant_id,
                time,
                foreground_app,
                screen_on,
                battery_pct,
                install_events,
            })
        }
        KIND_SLOW => {
            let install_id = InstallId(r.u64()?);
            let participant_id = ParticipantId(r.u32()?);
            let android_id = r.opt_u64()?.map(AndroidId);
            let time = SimTime::from_secs(r.u64()?);
            let n_accounts = r.count(10)?;
            let mut accounts = Vec::with_capacity(n_accounts);
            for _ in 0..n_accounts {
                let id = AccountId(r.u64()?);
                let tag = r.u8()?;
                let service = service_from_tag(tag, &mut r)?;
                let google_id = r.opt_u64()?.map(GoogleId);
                accounts.push(RegisteredAccount {
                    id,
                    service,
                    google_id,
                });
            }
            let save_mode = r.bool()?;
            let n_stopped = r.count(4)?;
            let mut stopped_apps = Vec::with_capacity(n_stopped);
            for _ in 0..n_stopped {
                stopped_apps.push(AppId(r.u32()?));
            }
            // Optional trailing review section (records written with
            // review collection off — and all pre-review records — end
            // right here).
            let mut review_events = Vec::new();
            if r.has_remaining() {
                let n_reviews = r.count(25)?;
                review_events.reserve(n_reviews);
                for _ in 0..n_reviews {
                    review_events.push(r.review_event()?);
                }
            }
            Snapshot::Slow(SlowSnapshot {
                install_id,
                participant_id,
                android_id,
                time,
                accounts,
                save_mode,
                stopped_apps,
                review_events,
            })
        }
        _ => return Err(DecodeError::Corrupt("unknown snapshot kind")),
    };
    r.done()?;
    Ok(snapshot)
}

/// Decode a whole binary accumulation file (a concatenation of
/// [`encode_record`] outputs) into its snapshots.
pub fn decode_file(data: &[u8]) -> Result<Vec<Snapshot>, DecodeError> {
    // A fast snapshot without events is ~36 bytes of body + 5 of framing.
    let mut snapshots = Vec::with_capacity(data.len() / 40 + 1);
    let mut pos = 0;
    while pos < data.len() {
        if data[pos] != TAG_BINARY_V1 {
            return Err(DecodeError::Corrupt("unknown record tag"));
        }
        if pos + 5 > data.len() {
            return Err(DecodeError::Truncated);
        }
        let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let end = pos + 5 + len;
        if len > data.len() || end > data.len() {
            return Err(DecodeError::Truncated);
        }
        snapshots.push(decode_body(&data[pos + 5..end])?);
        pos = end;
    }
    Ok(snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(events: Vec<InstallDelta>) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: InstallId(9_876_543_210),
            participant_id: ParticipantId(123_456),
            time: SimTime::from_secs(86_400),
            foreground_app: Some(AppId(42)),
            screen_on: true,
            battery_pct: 87,
            install_events: events,
        })
    }

    fn slow() -> Snapshot {
        Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(9_876_543_210),
            participant_id: ParticipantId(123_456),
            android_id: Some(AndroidId(0xDEAD_BEEF_CAFE)),
            time: SimTime::from_secs(7_200),
            accounts: vec![
                RegisteredAccount {
                    id: AccountId(1),
                    service: AccountService::Gmail,
                    google_id: Some(GoogleId(77)),
                },
                RegisteredAccount {
                    id: AccountId(2),
                    service: AccountService::Other(901),
                    google_id: None,
                },
            ],
            save_mode: true,
            stopped_apps: vec![AppId(3), AppId(9)],
            review_events: vec![],
        })
    }

    fn slow_with_reviews() -> Snapshot {
        let Snapshot::Slow(mut s) = slow() else {
            unreachable!()
        };
        s.review_events = vec![
            ReviewEvent {
                app: AppId(3),
                reviewer: GoogleId(77),
                time: SimTime::from_secs(7_000),
                rating: Rating::FIVE,
                text: "great app works perfectly".to_string(),
            },
            ReviewEvent {
                app: AppId(9),
                reviewer: GoogleId(78),
                time: SimTime::from_secs(7_100),
                rating: Rating::ONE,
                text: String::new(),
            },
        ];
        Snapshot::Slow(s)
    }

    fn installed() -> InstallDelta {
        InstallDelta::Installed(InstalledApp {
            app: AppId(7),
            install_time: SimTime::from_secs(100),
            last_update: SimTime::from_secs(200),
            permissions: PermissionProfile {
                requested: vec![Permission::Internet, Permission::Camera],
                granted: vec![Permission::Internet],
                denied: vec![Permission::Camera],
            },
            apk_hash: ApkHash([0xAB; 16]),
            stopped: false,
            preinstalled: true,
        })
    }

    fn round_trip(snapshot: &Snapshot) -> Snapshot {
        let mut buf = Vec::new();
        encode_record(snapshot, &mut buf);
        let mut decoded = decode_file(&buf).expect("decodes");
        assert_eq!(decoded.len(), 1);
        decoded.pop().unwrap()
    }

    #[test]
    fn fast_and_slow_round_trip() {
        for s in [
            fast(vec![]),
            fast(vec![
                installed(),
                InstallDelta::Uninstalled { app: AppId(5) },
            ]),
            slow(),
            slow_with_reviews(),
        ] {
            assert_eq!(round_trip(&s), s);
        }
    }

    #[test]
    fn empty_review_list_adds_no_bytes() {
        // A review-off record must be byte-identical to the pre-review
        // layout: the decoder's end-of-body check is the section gate, so
        // the review-on body is the review-off body plus a trailing
        // section.
        let mut without = Vec::new();
        encode_record(&slow(), &mut without);
        let mut with = Vec::new();
        encode_record(&slow_with_reviews(), &mut with);
        assert!(with.len() > without.len());
        assert_eq!(&without[5..], &with[5..without.len()]);
    }

    #[test]
    fn review_truncation_and_corruption_rejected() {
        let mut without = Vec::new();
        encode_record(&slow(), &mut without);
        let mut buf = Vec::new();
        encode_record(&slow_with_reviews(), &mut buf);
        // Any strict prefix of the record body fails loudly — except the
        // one landing exactly at the review-section boundary, which is a
        // valid review-less record by construction of the optional
        // section.
        for cut in 6..buf.len() {
            let mut bad = buf[..cut].to_vec();
            let len = (bad.len() - 5) as u32;
            bad[1..5].copy_from_slice(&len.to_le_bytes());
            if cut == without.len() {
                let decoded = decode_file(&bad).expect("section boundary is a valid record");
                assert_eq!(decoded, vec![slow()]);
            } else {
                assert!(decode_file(&bad).is_err(), "prefix of {cut} bytes decoded");
            }
        }
        // Rating byte out of range.
        let mut bad = buf.clone();
        let rating_pos = without.len() + 4 + 4 + 8 + 8;
        assert_eq!(bad[rating_pos], 5, "rating byte located");
        bad[rating_pos] = 6;
        assert!(decode_file(&bad).is_err());
        // Review text that is not UTF-8.
        let mut bad = buf.clone();
        let text_pos = rating_pos + 1 + 4;
        bad[text_pos] = 0xFF;
        assert!(decode_file(&bad).is_err());
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let s = fast(vec![]);
        let mut buf = Vec::new();
        encode_record(&s, &mut buf);
        let json = serde_json::to_vec(&s).unwrap();
        assert!(
            buf.len() * 3 < json.len(),
            "binary {} vs json {}",
            buf.len(),
            json.len()
        );
    }

    #[test]
    fn every_permission_discriminant_round_trips() {
        // The codec relies on `p as u8` indexing `Permission::ALL`; pin it.
        for (i, &p) in Permission::ALL.iter().enumerate() {
            assert_eq!(p as u8 as usize, i, "{p:?} discriminant moved");
        }
    }

    #[test]
    fn every_account_service_round_trips() {
        for &service in AccountService::consumer_services() {
            let mut s = slow();
            if let Snapshot::Slow(ref mut sl) = s {
                sl.accounts[0].service = service;
            }
            assert_eq!(round_trip(&s), s);
        }
    }

    #[test]
    fn concatenated_records_decode_in_order() {
        let mut buf = Vec::new();
        let snaps = vec![fast(vec![installed()]), slow(), fast(vec![])];
        for s in &snaps {
            encode_record(s, &mut buf);
        }
        assert_eq!(decode_file(&buf).unwrap(), snaps);
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_record(&fast(vec![installed()]), &mut buf);
        let first_record = buf.len(); // a cut here is a valid 1-record file
        encode_record(&slow(), &mut buf);
        for cut in 1..buf.len() {
            if cut == first_record {
                assert_eq!(decode_file(&buf[..cut]).unwrap().len(), 1);
                continue;
            }
            assert!(
                decode_file(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn corrupt_fields_are_rejected() {
        let mut buf = Vec::new();
        encode_record(&fast(vec![]), &mut buf);
        // Unknown record tag.
        let mut bad = buf.clone();
        bad[0] = 0x7B;
        assert!(decode_file(&bad).is_err());
        // Unknown snapshot kind.
        let mut bad = buf.clone();
        bad[5] = 9;
        assert!(decode_file(&bad).is_err());
        // Absurd length prefix.
        let mut bad = buf.clone();
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_file(&bad).is_err());
        // Trailing garbage inside the declared body.
        let mut bad = buf.clone();
        bad.push(0);
        let len = (bad.len() - 5) as u32;
        bad[1..5].copy_from_slice(&len.to_le_bytes());
        assert!(decode_file(&bad).is_err());
    }
}
