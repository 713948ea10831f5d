//! Hostile snapshot files, resealed: structure-aware edits of real upload
//! files, re-compressed and re-framed with a fresh CRC the way a hostile
//! client would send them, then handed to `ProtocolCore::handle` through
//! one long-lived `IngestScratch`, as a reactor worker would.
//!
//! Contract: every file is acknowledged or refused with a 400 — never a
//! panic — no single allocation handling it asks for more than
//! `LARGEST_REQUEST_BOUND`, and what the scratch keeps between uploads
//! stays within `RETAINED_BOUND`, however the files were shaped.

use racket_collect::server::MAX_INFLATED_BYTES;
use racket_collect::{
    lzss, CollectorConfig, FrameCodec, IngestScratch, Message, ProtocolCore, ShardedIngest,
    SnapshotBatch, SnapshotCollector,
};
use racket_device::Device;
use racket_types::{
    AccountId, AndroidId, ApkHash, AppId, FastSnapshot, GoogleId, InstallDelta, InstallId,
    ParticipantId, Permission, PermissionProfile, Rating, RegisteredAccount, SimTime, Snapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const P: ParticipantId = ParticipantId(123_456);
const I: InstallId = InstallId(1_000_000_000);

/// What an `IngestScratch` may keep between uploads: one inflate buffer of
/// `MAX_INFLATED_BYTES` plus a decode batch of four times that.
const RETAINED_BOUND: usize = 5 * MAX_INFLATED_BYTES;

/// The largest single allocation handling one upload may ask for: the
/// event vector of a file inflated to the cap, every 5-byte uninstall
/// delta a slot in memory, doubled for the vector's amortised growth. A
/// count that claims more elements than its record has bytes must be
/// refused before the decoder reserves room for them.
const LARGEST_REQUEST_BOUND: usize = 2 * MAX_INFLATED_BYTES / 5 * size_of::<InstallDelta>();

/// Records the largest allocation the calling thread asks for, so the
/// tests in this file can run side by side.
struct LargestRequest;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator allocates nothing and is valid for the thread's life.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// `GlobalAlloc` is an unsafe trait; every method forwards to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Hand one upload to the core and check the memory contract: no single
/// allocation past `LARGEST_REQUEST_BOUND` while handling it, and no more
/// than `RETAINED_BOUND` kept in the scratch afterwards.
fn handle_bounded(
    core: &ProtocolCore,
    msg: Message,
    scratch: &mut IngestScratch,
    case: usize,
) -> Option<Message> {
    LARGEST.with(|m| m.set(0));
    let reply = core.handle(msg, scratch);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= LARGEST_REQUEST_BOUND,
        "case {case}: one allocation of {largest} bytes"
    );
    assert!(
        scratch.retained_bytes() <= RETAINED_BOUND,
        "case {case}: the scratch keeps {} bytes",
        scratch.retained_bytes()
    );
    reply
}

/// A core over its own store, with one scratch, after `I` signed in.
fn signed_in_core() -> (Arc<ShardedIngest>, ProtocolCore, IngestScratch) {
    let store = Arc::new(ShardedIngest::new(4));
    let core = ProtocolCore::new([P], Arc::clone(&store));
    let mut scratch = IngestScratch::new();
    let sign_in = Message::SignIn {
        participant: P,
        install: I,
    };
    assert_eq!(
        core.handle(sign_in, &mut scratch),
        Some(Message::SignInAck { accepted: true })
    );
    (store, core, scratch)
}

/// A real-mix fast file and slow file of one install: the first fast
/// snapshot lists 40 apps, each with requested, granted and denied lists;
/// later ones carry installs and uninstalls; the slow snapshots carry
/// accounts, stopped apps and reviews.
fn real_files() -> [Vec<u8>; 2] {
    let mut device = Device::new(Some(AndroidId(7)));
    let profile = |k: usize| {
        let requested: Vec<Permission> = Permission::ALL
            .iter()
            .copied()
            .skip(k % 9)
            .step_by(3)
            .collect();
        let dangerous = requested.iter().copied().filter(|p| p.is_dangerous());
        PermissionProfile {
            requested: requested.iter().copied().collect(),
            granted: dangerous.clone().step_by(2).collect(),
            denied: dangerous.skip(1).step_by(2).collect(),
        }
    };
    for k in 0..40u32 {
        let t = SimTime::from_secs(u64::from(k));
        device.install_app(AppId(k), t, profile(k as usize), ApkHash([k as u8; 16]));
    }
    device.register_account(RegisteredAccount::gmail(AccountId(1), GoogleId(9)));
    let config = CollectorConfig {
        fast_period_secs: 60,
        slow_period_secs: 120,
        collect_reviews: true,
    };
    let mut collector = SnapshotCollector::new(config, I, P);
    let mut batch = SnapshotBatch::new();
    for minute in 1..=20u32 {
        let now = SimTime::from_mins(u64::from(minute));
        match minute % 5 {
            1 => {
                let app = AppId(100 + minute);
                device.install_app(app, now, profile(minute as usize), ApkHash([3; 16]));
            }
            2 => {
                device.uninstall_app(AppId(minute));
            }
            3 => device.record_review(
                AppId(minute),
                GoogleId(9),
                Rating::new(1 + (minute % 5) as u8).expect("stars in 1..=5"),
                now,
                "five stars, installed it for the reward",
            ),
            _ => {}
        }
        collector.poll_into(&device, now, &mut batch);
    }
    let mut files = [Vec::new(), Vec::new()];
    for s in batch.snapshots() {
        SnapshotCollector::serialize_into(s, &mut files[usize::from(!s.is_fast())]);
    }
    files
}

fn u32_at(file: &[u8], p: usize) -> usize {
    u32::from_le_bytes(file[p..p + 4].try_into().expect("4 bytes")) as usize
}

/// `(record start, offset of the count)` of every permission list in an
/// unedited file's fast records (the layout is `codec.rs`'s).
fn permission_counts(file: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut rec = 0;
    while rec < file.len() {
        let body = rec + 5;
        if file[body] == 0 {
            // Kind, install, participant and time, then the foreground
            // option, screen and battery.
            let mut p = body + 1 + 8 + 4 + 8;
            p += if file[p] == 1 { 5 } else { 1 };
            p += 2;
            let n_events = u32_at(file, p);
            p += 4;
            for _ in 0..n_events {
                if file[p] == 0 {
                    p += 1 + 4 + 8 + 8;
                    for _ in 0..3 {
                        out.push((rec, p));
                        p += 4 + u32_at(file, p);
                    }
                    p += 16 + 2;
                } else {
                    p += 1 + 4;
                }
            }
        }
        rec = body + u32_at(file, rec + 1);
    }
    out
}

/// Raise one permission list's count to 36..=255 and put that many valid
/// discriminants behind it, resealing the record's length: only the
/// list's capacity can refuse it.
fn overlong_list(file: &mut Vec<u8>, rng: &mut StdRng) {
    let counts = permission_counts(file);
    let (rec, at) = counts[rng.gen_range(0..counts.len())];
    let old = u32_at(file, at);
    let n = rng.gen_range(Permission::ALL.len() + 1..=255);
    let extra = (old..n).map(|i| (i % Permission::ALL.len()) as u8);
    file.splice(at + 4 + old..at + 4 + old, extra);
    file[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    let len = u32_at(file, rec + 1) + n - old;
    file[rec + 1..rec + 5].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Make one permission list of two or more entries name its first entry
/// again in its last place: the count, the length and every discriminant
/// stay valid, so only the set's refusal of a repeat can catch it.
fn repeated_permission(file: &mut [u8], rng: &mut StdRng) {
    let counts: Vec<_> = permission_counts(file)
        .into_iter()
        .filter(|&(_, at)| u32_at(file, at) >= 2)
        .collect();
    let (_, at) = counts[rng.gen_range(0..counts.len())];
    let n = u32_at(file, at);
    file[at + 4 + n - 1] = file[at + 4];
}

/// A count in a slow record's body (the layout is `codec.rs`'s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlowCount {
    Accounts,
    StoppedApps,
    Reviews,
    TextLength,
}

impl SlowCount {
    const ALL: [SlowCount; 4] = [
        SlowCount::Accounts,
        SlowCount::StoppedApps,
        SlowCount::Reviews,
        SlowCount::TextLength,
    ];

    /// The fewest bytes one counted element takes on the wire.
    fn min_elem_bytes(self) -> usize {
        match self {
            SlowCount::Accounts => 10,
            SlowCount::StoppedApps => 4,
            SlowCount::Reviews => 25,
            SlowCount::TextLength => 1,
        }
    }

    /// `k` valid elements: accounts with a known service tag and no
    /// Google ID, app ids, five-star reviews of three ASCII bytes, or
    /// ASCII text.
    fn valid_elements(self, k: usize, rng: &mut StdRng) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..k {
            match self {
                SlowCount::Accounts => {
                    out.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
                    out.extend_from_slice(&[rng.gen_range(0..20), 0]);
                }
                SlowCount::StoppedApps => out.extend_from_slice(&rng.gen::<u32>().to_le_bytes()),
                SlowCount::Reviews => {
                    out.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
                    out.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
                    out.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
                    out.push(5);
                    out.extend_from_slice(&3u32.to_le_bytes());
                    out.extend_from_slice(b"ok!");
                }
                SlowCount::TextLength => out.push(b'x'),
            }
        }
        out
    }
}

/// `(record start, offset of the count, which count)` of every count in
/// an unedited file's slow records.
fn slow_counts(file: &[u8]) -> Vec<(usize, usize, SlowCount)> {
    let mut out = Vec::new();
    let mut rec = 0;
    while rec < file.len() {
        let body = rec + 5;
        let end = body + u32_at(file, rec + 1);
        if file[body] == 1 {
            // Kind, install and participant, the Android ID option, time.
            let mut p = body + 1 + 8 + 4;
            p += if file[p] == 1 { 9 } else { 1 };
            p += 8;
            out.push((rec, p, SlowCount::Accounts));
            let n_accounts = u32_at(file, p);
            p += 4;
            for _ in 0..n_accounts {
                // Id, service tag (0xFF escapes to a u16), Google ID option.
                p += 8;
                p += if file[p] == 0xFF { 3 } else { 1 };
                p += if file[p] == 1 { 9 } else { 1 };
            }
            p += 1; // save mode
            out.push((rec, p, SlowCount::StoppedApps));
            p += 4 + 4 * u32_at(file, p);
            if p < end {
                out.push((rec, p, SlowCount::Reviews));
                let n_reviews = u32_at(file, p);
                p += 4;
                for _ in 0..n_reviews {
                    // App, reviewer, time and rating, then the text.
                    p += 4 + 8 + 8 + 1;
                    out.push((rec, p, SlowCount::TextLength));
                    p += 4 + u32_at(file, p);
                }
            }
        }
        rec = end;
    }
    out
}

/// What an edited file must get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ack,
    Refusal,
    Either,
}

/// Overwrite one `which` count of a slow record, with valid bytes behind
/// it: raised over as many valid elements inserted behind it (the record
/// length resealed), set small, set just past what the record's remaining
/// bytes can hold, or set far past it.
fn slow_count_edit(file: &mut Vec<u8>, which: SlowCount, rng: &mut StdRng) -> Expect {
    let sites: Vec<_> = slow_counts(file)
        .into_iter()
        .filter(|&(.., c)| c == which)
        .collect();
    let (rec, at, _) = sites[rng.gen_range(0..sites.len())];
    let old = u32_at(file, at);
    let left = rec + 5 + u32_at(file, rec + 1) - (at + 4);
    let (n, expect) = match rng.gen_range(0..4) {
        0 => {
            let k = rng.gen_range(1..=4);
            let extra = which.valid_elements(k, rng);
            let len = u32_at(file, rec + 1) + extra.len();
            file[rec + 1..rec + 5].copy_from_slice(&(len as u32).to_le_bytes());
            file.splice(at + 4..at + 4, extra);
            (old + k, Expect::Ack)
        }
        1 => (rng.gen_range(0..16), Expect::Either),
        2 => (
            left / which.min_elem_bytes() + rng.gen_range(1..=16),
            Expect::Refusal,
        ),
        _ => (rng.gen_range(1 << 24..=1 << 26), Expect::Refusal),
    };
    file[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    expect
}

/// One blind edit: a word overwritten with a small count, a count past
/// the catalog, `u32::MAX` or noise; a bit flipped; the tail cut; or the
/// tail of `other` spliced on.
fn blind_edit(file: &mut Vec<u8>, other: &[u8], rng: &mut StdRng) {
    if file.is_empty() {
        return;
    }
    let at = rng.gen_range(0..file.len());
    match rng.gen_range(0..4) {
        0 => {
            let word: u32 = match rng.gen_range(0..4) {
                0 => rng.gen_range(0..16),
                1 => rng.gen_range(36..=255),
                2 => u32::MAX,
                _ => rng.gen(),
            };
            let end = file.len().min(at + 4);
            file[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
        }
        1 => file[at] ^= 1 << rng.gen_range(0..8),
        2 => file.truncate(at),
        _ => {
            file.truncate(at);
            file.extend_from_slice(&other[rng.gen_range(0..other.len())..]);
        }
    }
}

/// Compress and frame `file` as upload `file_id` with a fresh CRC, and
/// decode it back off the wire.
fn resealed(file: &[u8], file_id: u64, fast: bool) -> Message {
    let upload = Message::SnapshotUpload {
        install: I,
        file_id,
        fast,
        payload: lzss::compress(file),
    };
    let mut codec = FrameCodec::new();
    codec.feed(&upload.encode_seq(file_id as u32));
    codec
        .try_decode_message()
        .expect("a resealed frame passes its CRC")
        .expect("one whole frame")
}

#[test]
fn resealed_edits_get_an_ack_or_a_400_and_bounded_scratch() {
    let files = real_files();
    assert!(permission_counts(&files[0]).len() >= 3 * 40);
    let (store, core, mut scratch) = signed_in_core();

    // A valid file that decodes to far more than its bytes — uninstall
    // deltas are 5 bytes on the wire and a full slot in memory — then the
    // untouched files, then 256 hostile ones.
    let n_wide = (MAX_INFLATED_BYTES - 64) / 5;
    let wide = Snapshot::Fast(FastSnapshot {
        install_id: I,
        participant_id: P,
        time: SimTime::from_days(1),
        foreground_app: None,
        screen_on: false,
        battery_pct: 50,
        install_events: (0..n_wide as u32)
            .map(|app| InstallDelta::Uninstalled { app: AppId(app) })
            .collect(),
    });
    let mut cases = vec![(SnapshotCollector::serialize(&wide), true, false)];
    cases.push((files[0].clone(), true, false));
    cases.push((files[1].clone(), false, false));
    let mut rng = StdRng::seed_from_u64(0x5eed_0031);
    for _ in 0..256 {
        let base = rng.gen_range(0..2);
        let mut file = files[base].clone();
        let overlong = base == 0 && rng.gen_bool(0.4);
        if overlong {
            overlong_list(&mut file, &mut rng);
        }
        let n_blind = if overlong {
            rng.gen_range(0..=2)
        } else {
            rng.gen_range(1..=3)
        };
        for _ in 0..n_blind {
            blind_edit(&mut file, &files[1 - base], &mut rng);
        }
        cases.push((file, base == 0, overlong && n_blind == 0));
    }

    let (mut next, mut acks, mut refused, mut capped) = (1u64, 0u64, 0u64, 0u64);
    for (k, (file, fast, only_overlong)) in cases.into_iter().enumerate() {
        let upload = resealed(&file, next, fast);
        match handle_bounded(&core, upload, &mut scratch, k) {
            Some(Message::UploadAck { file_id, .. }) if !only_overlong => {
                assert_eq!(file_id, next, "case {k}");
                next += 1;
                acks += 1;
            }
            Some(Message::Error { code: 400, detail }) => {
                assert!(k >= 3, "case {k}: an unedited file was refused: {detail}");
                if only_overlong {
                    assert!(detail.contains("permission list longer than the catalog"));
                    capped += 1;
                }
                refused += 1;
            }
            other => panic!("case {k}: {other:?}"),
        }
    }
    let stats = core.stats();
    assert_eq!((stats.files, stats.bad_uploads), (acks, refused));
    assert!(
        acks > 3 && refused > 100 && capped > 4,
        "{acks} acks, {refused} refused, {capped} capped"
    );
    let record = store.record(I).expect("the accepted files were folded");
    assert!(record.uninstall_events.len() >= n_wide);
}

#[test]
fn resealed_repeated_permissions_get_a_400() {
    let fast = &real_files()[0];
    let (_, core, mut scratch) = signed_in_core();
    let mut rng = StdRng::seed_from_u64(0x5eed_0042);
    let n = 32;
    for k in 0..n {
        let mut file = fast.clone();
        repeated_permission(&mut file, &mut rng);
        match handle_bounded(&core, resealed(&file, 1, true), &mut scratch, k) {
            Some(Message::Error { code: 400, detail }) => {
                assert!(detail.contains("repeated permission"), "case {k}: {detail}");
            }
            other => panic!("case {k}: {other:?}"),
        }
    }
    let stats = core.stats();
    assert_eq!((stats.files, stats.bad_uploads), (0, n as u64));
    // The unedited file is still acknowledged.
    assert!(matches!(
        handle_bounded(&core, resealed(fast, 1, true), &mut scratch, n),
        Some(Message::UploadAck { file_id: 1, .. })
    ));
}

#[test]
fn resealed_slow_record_counts_get_an_ack_or_a_400_and_bounded_memory() {
    let slow = &real_files()[1];
    let sites = slow_counts(slow);
    for which in SlowCount::ALL {
        assert!(
            sites.iter().any(|&(.., c)| c == which),
            "no {which:?} count"
        );
    }
    let (store, core, mut scratch) = signed_in_core();
    let mut rng = StdRng::seed_from_u64(0x5eed_0034);
    let (mut next, mut acks, mut refused) = (1u64, 0u64, 0u64);
    for k in 0..256 {
        let which = SlowCount::ALL[k % 4];
        let mut file = slow.clone();
        let expect = slow_count_edit(&mut file, which, &mut rng);
        let upload = resealed(&file, next, false);
        match (handle_bounded(&core, upload, &mut scratch, k), expect) {
            (Some(Message::UploadAck { file_id, .. }), Expect::Ack | Expect::Either) => {
                assert_eq!(file_id, next, "case {k}");
                next += 1;
                acks += 1;
            }
            (Some(Message::Error { code: 400, .. }), Expect::Refusal | Expect::Either) => {
                refused += 1;
            }
            (other, _) => panic!("case {k}: {which:?} edit expected {expect:?}, got {other:?}"),
        }
    }
    let stats = core.stats();
    assert_eq!((stats.files, stats.bad_uploads), (acks, refused));
    assert!(acks > 32 && refused > 128, "{acks} acks, {refused} refused");
    assert!(store.record(I).is_some());
}
