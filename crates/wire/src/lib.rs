//! # photonn-wire
//!
//! The workspace's shared wire codecs. The workspace is offline and
//! dependency-free, so both network-facing subsystems hand-roll their
//! protocols from the standard library; this crate holds the pieces they
//! have in common so neither re-implements the other's bugs:
//!
//! * [`json`] — the minimal JSON codec originally written for
//!   `photonn-serve`'s HTTP API. Its load-bearing property is **bit-exact
//!   finite `f64` round-trips** (shortest-roundtrip `Display`, strict
//!   parse), which is what makes "served logits are bit-identical to direct
//!   calls" a testable claim rather than a hope. `photonn-dist` uses it
//!   for the small control header of each protocol message.
//! * [`frame`] — length-prefixed byte-payload framing over any byte stream,
//!   the transport under `photonn-dist`'s rank-0 ↔ peer gradient protocol
//!   (HTTP's `Content-Length` plays the same role for `photonn-serve`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod json;

pub use frame::{is_timeout, read_frame, write_frame, FrameError};
pub use json::{Json, JsonError};
