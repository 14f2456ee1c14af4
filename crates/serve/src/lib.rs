//! # photonn-serve
//!
//! An event-loop inference server over the `photonn` batched propagation
//! engine — the ROADMAP's "async serving frontend" realized with the
//! standard library only (the workspace is offline: no tokio, no hyper,
//! no mio; the readiness poller is a hand-rolled `epoll`/`poll(2)` shim
//! the way `photonn-fft` hand-rolls its worker pool).
//!
//! ```text
//!  10k clients ──HTTP──▶ event loop (epoll) ── conn state machines
//!                              │  incremental parse → planar batch stack
//!                              ▼
//!              one shared queue of model groups, N dispatcher
//!              threads (shed with 429 + retry_after_ms once the
//!              bounded queue is full)
//!                              │  one BatchCGrid ─▶ logits_batch
//!                              ▼
//!  10k clients ◀──JSON── event loop ◀── completion queue + waker
//! ```
//!
//! The crate's pieces, bottom-up:
//!
//! | Module | Role |
//! |---|---|
//! | [`json`] | hand-rolled JSON codec (bit-exact `f64` round-trips), shared via `photonn-wire` |
//! | [`poll`] | minimal `epoll`/`poll(2)` readiness shim + cross-thread waker (the crate's only `unsafe`) |
//! | [`http`] | minimal HTTP/1.1: blocking codec for clients + incremental zero-copy parser for the event loop |
//! | [`metrics`] | queue depth, batch-size histogram, p50/p99 latency, shed count, per-dispatcher batch/job counters |
//! | [`cache`] | memory-budgeted LRU over the mask-independent first hop |
//! | [`registry`] | named model variants: ideal / quantized / deployed / noise-injected |
//! | [`head`] | selectable readout heads: region sums or differential detection |
//! | [`shard`] | dispatch: N dispatcher threads over one bounded queue of model groups |
//! | [`server`] | the event-loop frontend: [`ServerBuilder`], `/v1` + `/v2` routing, graceful drain |
//!
//! Because the batched engine is per-sample deterministic across batch
//! sizes and thread counts, a served logits vector is **bit-identical** to
//! a direct [`photonn_donn::Donn::logits`] call on the same image, no
//! matter how the dispatcher coalesced the traffic — the end-to-end tests
//! assert exactly that through a real TCP socket, and the `/v1` wire
//! format is pinned byte-for-byte by committed fixtures.
//!
//! # Examples
//!
//! ```
//! use photonn_donn::{Donn, DonnConfig};
//! use photonn_math::{Grid, Rng};
//! use photonn_serve::{ModelRegistry, ServerBuilder};
//!
//! let mut rng = Rng::seed_from(7);
//! let donn = Donn::random(DonnConfig::scaled(32), &mut rng);
//! let mut registry = ModelRegistry::new();
//! registry.register("ideal", donn.clone());
//!
//! let mut server = ServerBuilder::new(registry)
//!     .shards(2)
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! let addr = server.addr();
//! // ... POST {"inputs": [[...]]} to http://{addr}/v2/logits ...
//! server.shutdown();
//! ```

#![deny(unsafe_code)] // confined: `poll` opts back in at module level
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod head;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod registry;
pub mod server;
pub mod shard;

// The JSON codec moved to `photonn-wire` so the distributed trainer can
// speak the same dialect; re-exported here to keep `photonn_serve::json`
// (and every existing caller) working unchanged.
pub use photonn_wire::json;

pub use cache::FirstHopCache;
pub use client::{ApiError, BatchInference, Client, ClientError, Inference};
pub use head::ReadoutHead;
pub use json::Json;
pub use metrics::{Metrics, MetricsSnapshot};
pub use registry::{ModelRegistry, ServedModel, VariantKind};
pub use server::{ServeConfig, ServerBuilder, ServerHandle};
pub use shard::{BatchPolicy, SubmitError};
