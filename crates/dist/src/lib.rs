//! # photonn-dist
//!
//! Sharded data-parallel training for DONN phase masks with a
//! **deterministic gradient all-reduce** — the ROADMAP's "multi-dataset
//! sharding" item realized with the standard library only.
//!
//! Each `train_with` step is a pure function of `(masks, mini-batch)` and
//! the batched tape emits batch-averaged mask gradients, so data
//! parallelism reduces to: split the batch, run one tape per shard,
//! all-reduce, step once.
//!
//! ```text
//!            mini-batch (seeded shuffle, identical to single-process)
//!                 │ shard_batch: contiguous, near-equal, deterministic
//!        ┌────────┼────────────┐
//!        ▼        ▼            ▼
//!    worker 0  worker 1 …  worker N−1     in-process threads, or rank 0 +
//!    [tape 0]  [tape 1]    [tape N−1]     peer processes over loopback TCP
//!        │        │            │          (raw f64 planes, JSON header)
//!        ▼        ▼            ▼
//!     MaskGrads buffers (complex mask-space adjoints, global 1/B seeds)
//!        └────────┴─────┬──────┘
//!                       ▼ tree_reduce (the tape's midpoint tree)
//!                 phase_gradients → regularizers → Adam step (rank 0)
//! ```
//!
//! ## Determinism contract
//!
//! * **Same shards, always.** Shard assignment is a pure function of the
//!   shuffled batch order and the worker count; the shard concatenation
//!   *is* the batch for every worker count.
//! * **Same arithmetic, reassociated at worst.** Every shard tape uses the
//!   global batch size as its loss denominator, so each sample's backward
//!   contribution carries the exact single-tape `1/B` seed; the all-reduce
//!   sums complex mask-space adjoints and applies the phase projection
//!   once, through the same `phase_adjoint` the tape itself uses. Any
//!   worker count therefore reproduces the single-tape batched gradients
//!   to within floating-point reassociation (≤ 1e-12, CI-enforced).
//! * **Bit-identical when tree-aligned.** The tape accumulates per-sample
//!   mask gradients with a fixed midpoint-split tree, and
//!   [`MaskGrads::tree_reduce`] combines shard partials with the same
//!   rule — so an equal contiguous split with a power-of-two worker count
//!   (2, 4, 8 … dividing the batch) yields **bit-identical** gradients to
//!   the single tape, and a whole training run at such a worker count
//!   produces bit-identical masks. (The scalar *loss* reported per epoch
//!   is a diagnostic and only reassociation-equal: each shard folds its
//!   own rows before the cross-shard sum.)
//! * **Transport-invariant.** The wire ships every `f64` plane as its
//!   little-endian bytes, so every value — NaN payloads and ±Inf included
//!   — arrives as identical bits, and multi-process runs equal in-process
//!   runs at the same worker count, bit for bit.
//!
//! [`MaskGrads::tree_reduce`]: photonn_autodiff::MaskGrads::tree_reduce
//!
//! ## Failure model (TCP mode)
//!
//! The transport is *elastic*: peers heartbeat while computing, rank 0's
//! sockets carry bounded read/write timeouts, a silent peer is re-dialed
//! with exponential backoff inside a bounded window, and a peer confirmed
//! lost has the interrupted step re-split over the survivors — exactly the
//! `shard_batch` plan a fresh run with the surviving worker count would
//! use, with the global loss denominator unchanged, so the post-loss run
//! is *bit-identical* to that fresh run. `DistConfig::min_workers` turns
//! further shrinkage into a loud [`DistError::BelowMinWorkers`]. The
//! [`chaos`] module holds the seeded in-process fault-injection proxy that
//! proves all of this deterministically; see [`tcp`]'s module docs for the
//! detection/reconnect/re-split ladder.
//!
//! [`tcp`]: self#entry-points
//!
//! ## Entry points
//!
//! | Item | Role |
//! |---|---|
//! | [`shard_batch`] | deterministic contiguous shard plan |
//! | [`sharded_gradients`] | one sharded step, in-process pool |
//! | [`train_with_sharded`] / [`train_sharded`] | the full trainer path |
//! | [`TcpPool`] / [`serve_peer_once`] | rank 0 ↔ peer loopback protocol |
//! | [`FaultConfig`] | heartbeat / timeout / reconnect tuning |
//! | [`load_hostfile`] | peer list from a hostfile |
//! | [`chaos`] | deterministic fault-injection proxy for tests |
//!
//! # Examples
//!
//! ```
//! use photonn_datasets::{Dataset, Family};
//! use photonn_dist::{train_sharded, DistConfig};
//! use photonn_donn::train::TrainOptions;
//! use photonn_donn::{Donn, DonnConfig};
//! use photonn_math::Rng;
//!
//! let mut rng = Rng::seed_from(7);
//! let mut donn = Donn::random(DonnConfig::scaled(16), &mut rng);
//! let data = Dataset::synthetic(Family::Mnist, 32, 7).resized(16);
//! let opts = TrainOptions { epochs: 1, batch_size: 16, ..TrainOptions::default() };
//! let stats = train_sharded(&mut donn, &data, &opts, &DistConfig::in_process(2)).unwrap();
//! assert_eq!(stats.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod proto;
mod shard;
mod tcp;
mod train;
mod worker;

pub use shard::shard_batch;
pub use tcp::{serve_peer_forever, serve_peer_once, FaultConfig, TcpPool};
pub use train::{
    load_hostfile, parse_hostfile, sharded_gradients, train_sharded, train_with_sharded,
    DistConfig, DistError,
};
pub use worker::{all_reduce, in_process_shard_grads};
