//! Sharded sweep fan-out for `bgpsim-server` fleets.
//!
//! The paper's sweeps are embarrassingly parallel: every (attacker,
//! target, defense) cell is a pure function of the generated topology,
//! so a pool of attackers can be split across machines and the rows
//! re-interleaved with **zero** tolerance — the merged result is
//! byte-identical to a single-node run, and this crate's tests pin
//! that.
//!
//! Three layers:
//!
//! - [`shard`] — deterministic stride partitioning of an attacker pool
//!   and the positional merge that inverts it.
//! - [`client`] — the std-only HTTP/1.1 keep-alive client (promoted
//!   from `examples/loadgen.rs`) every coordinator connection uses.
//! - [`coordinator`] — worker registration with a compatibility
//!   [`Handshake`], shard dispatch over `/v1/attacks:batch` and
//!   `/v1/sweeps`, bounded retries, and the merge. The wire documents a
//!   sweep travels as ([`SweepRequest::to_json`], the `defense` object's
//!   writer and reader) live beside it.
//!
//! Consumed by `bgpsim serve --fanout-workers …` (the server deals its
//! sweep jobs to the fleet) and `bgpsim fanout` (one-shot CLI sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod shard;

pub use client::Client;
pub use coordinator::{
    defense_from_json, defense_to_json, Coordinator, FanoutConfig, FanoutError, FanoutStats,
    Handshake, NoopObserver, SweepObserver, SweepRequest, WorkerStats,
};
pub use shard::ShardPlan;
