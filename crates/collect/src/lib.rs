//! The RacketStore collection platform (§3, Figure 3).
//!
//! Everything between the participant's device and the study database:
//!
//! * [`collector`] — the mobile app's fast (5 s) and slow (2 min) snapshot
//!   collectors, permission-gated exactly as the paper describes;
//! * [`buffer`] — the on-device data buffer: snapshots accumulate into
//!   per-type files, compressed and rotated at 8 KB (slow) / 100 KB (fast),
//!   deleted only once the server acknowledges the upload with a matching
//!   content hash;
//! * [`codec`] — the compact, version-tagged binary record format those
//!   accumulation files use;
//! * [`hash`] — SHA-256 (upload acknowledgement) and CRC32 (frame
//!   checksums), both implemented in-crate and pinned against published
//!   test vectors;
//! * [`lzss`] — the compression applied to rotated snapshot files;
//! * [`wire`] — the length-prefixed, CRC-protected frame codec and message
//!   set (sign-in, snapshot upload, hash acknowledgement);
//! * [`transport`] — the in-memory duplex pipe ([`MemTransport`], a
//!   crossbeam channel pair) and the seeded fault-injection layer
//!   ([`transport::FaultPlan`]) chaos tests drive;
//! * `retry` — the client-side window/retry/backoff state machine:
//!   [`WireLane`] runs one device's protocol session over a
//!   (possibly fault-injected) link with a sliding window of files in
//!   flight, Go-Back-N recovery, bounded exponential backoff,
//!   reconnect-and-resume, and exactly-once in-order delivery via the
//!   server's file-order rule; a loopback lane also steps the server
//!   half of its link inline, with the async plane's connection step;
//! * [`server`] — the server side of the protocol as one sans-IO core
//!   ([`ProtocolCore`]; the contract is `PROTOCOL.md` §6) and the
//!   per-install aggregate it folds into; the private `session` module
//!   is the per-connection half of the same contract (decode, bounded
//!   admission with its 429 shed, reply numbering), one per connection;
//! * [`async_server`] — the one connection step (read, feed the
//!   session, reply, close on trouble) and the worker-pool server that
//!   runs it: thread-per-core workers multiplexing thousands of
//!   in-memory and TCP connections, each round one pass over a worker's
//!   connections (readiness, step, stall deadline) and an idle round a
//!   spin-then-park (the million-device scale path; see
//!   `ARCHITECTURE.md` §8);
//! * `shard` — the one record table ([`ShardedIngest`]): per-install records spread over
//!   independently locked shards so batches from different devices
//!   ingest concurrently on every collection path;
//! * `columnar` — the struct-of-arrays projection of the ingest store
//!   ([`ColumnarSnapshots`]): the install-event and review families the
//!   batch campaign and text rebuilds scan (`ARCHITECTURE.md` §9);
//! * `fingerprint` — Appendix A's snapshot fingerprinting: coalescing
//!   RacketStore installs into physical devices using install intervals,
//!   Android IDs and Jaccard similarity.

#![deny(missing_docs)]

pub mod async_server;
pub mod buffer;
pub mod codec;
pub mod collector;
mod columnar;
mod fingerprint;
pub mod hash;
pub mod lzss;
mod retry;
pub mod server;
mod session;
mod shard;
mod stream;
pub mod transport;
pub mod wire;

pub use async_server::{AsyncCollectServer, AsyncConn, AsyncServerConfig};
pub use buffer::{DataBuffer, UploadFile};
pub use codec::DecodeError;
pub use collector::{CollectorConfig, SnapshotBatch, SnapshotCollector};
pub use columnar::{ColumnarSnapshots, ReviewEntry};
pub use fingerprint::{coalesce_installs, CandidateInstall, CoalescedDevice};
pub use hash::{crc32, sha256};
pub use retry::{RetryStats, WireLane};
pub use server::{AppTable, IngestScratch, InstallRecord, ProtocolCore};
pub use shard::ShardedIngest;
pub use stream::{AppStream, StreamAggregates};
pub use transport::{FaultPlan, MemTransport};
pub use wire::{Frame, FrameCodec, Message};
