//! # `mmlp-store` — the persistence layer
//!
//! Everything upstream of this crate is deterministic: the paper's
//! local algorithm, the simplex, the safe baseline all produce
//! bit-identical output for a fixed `(instance, R)`. That is
//! what makes solved work worth *keeping* — a result computed once is
//! correct forever. This crate gives the workspace a place to keep it:
//!
//! * [`codec`] — a versioned, checksummed **binary format** for
//!   [`Instance`](mmlp_instance::Instance) and
//!   [`Solution`](mmlp_instance::Solution): magic + format version,
//!   FNV-checksummed sections, varint-packed sparse rows, raw IEEE-754
//!   coefficient bits. Round trips are bit-identical with the text
//!   format and decode an order of magnitude faster (no float
//!   parsing) — see the `store_codec` bench.
//! * [`segment`] — the append-only record framing inside a shard's
//!   segment file, and the scanner that classifies damage (framing
//!   damage ⇒ truncate, payload damage ⇒ skip). Scanned records borrow
//!   their payloads from the buffer they were read into.
//! * [`store`] — the [`Store`]: 16 shard files keyed by the low bits
//!   of the instance content hash, an in-memory index rebuilt by
//!   scanning at open, torn-tail repair, last-wins duplicates, `gc`
//!   (compaction via temp + `fsync` + atomic rename) and `verify`
//!   (full checksum sweep).
//!
//! `mmlp-serve` mounts a store behind `--store-dir` to persist `PUT`
//! instances and solved results across restarts (loading result bodies
//! from the open scan at boot, and instances from their records when a
//! request names them); `mmlp-lab` spills campaign results into one; the
//! CLI exposes `store import|export|convert|ls|gc|verify`. The byte
//! layouts are specified normatively in `specs/STORAGE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use mmlp_store::prelude::*;
//! use mmlp_instance::InstanceBuilder;
//!
//! let dir = std::env::temp_dir().join(format!("mmlp-store-doc-{}", std::process::id()));
//! let mut b = InstanceBuilder::new();
//! let v = b.add_agent();
//! b.add_constraint(&[(v, 1.0)]).unwrap();
//! b.add_objective(&[(v, 1.0)]).unwrap();
//! let inst = b.build().unwrap();
//!
//! let (store, _report) = Store::open(&dir).unwrap();
//! let hash = store.put_instance(&inst).unwrap();
//! let key = ResultKey { instance: hash, op: 1, big_r: 3, threads: 1 };
//! store.put_result(key, "utility 1\n").unwrap();
//! drop(store);
//!
//! // A fresh open rebuilds the index from the segment files.
//! let (store, report) = Store::open(&dir).unwrap();
//! assert_eq!((report.instances, report.results), (1, 1));
//! assert_eq!(store.get_result(&key).unwrap().unwrap(), "utility 1\n");
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod codec;
pub mod segment;
pub mod store;
pub mod varint;

pub use segment::{Record, RecordRef, ResultKey};
pub use store::{GcReport, OpenReport, Store, StoreConfig, VerifyReport, N_SHARDS};

/// One-stop imports for the CLI, the server and tests.
pub mod prelude {
    pub use crate::codec::{decode_instance, decode_solution, encode_instance, encode_solution};
    pub use crate::segment::{Record, RecordRef, ResultKey};
    pub use crate::store::{GcReport, OpenReport, Store, StoreConfig, VerifyReport};
}
