//! The rank-0 ↔ peer gradient protocol over length-prefixed frames
//! ([`photonn_wire`]).
//!
//! The protocol is deliberately session-oriented and chatty-once: an
//! [`Message::Init`] handshake ships everything immutable — the full [`DonnConfig`]
//! (so the peer rebuilds the identical propagation kernel), the training
//! set, and any freeze masks — after which each step exchanges only the
//! current phase masks and a shard's index list one way and a
//! [`photonn_autodiff::MaskGrads`] buffer the other.
//!
//! ## Payload layout
//!
//! ```text
//! u32 LE header length │ JSON header (UTF-8) │ bulk: raw f64 planes, LE
//! ```
//!
//! The JSON header holds only the control fields; every `f64` plane
//! travels in the bulk as its little-endian bytes, in message order:
//!
//! | `type` | other header fields | bulk |
//! |---|---|---|
//! | `init` | `protocol`, `heartbeat_ms`, `config`, `labels`, `images` (count), `freeze` (count, absent without freeze masks) | the images, then the freeze masks |
//! | `step` | `denom`, `shard`, `masks` (count) | the masks |
//! | `grads` | `samples`, `layers` (count) | the loss, then each layer's re plane and im plane |
//! | `ready`, `heartbeat`, `shutdown` | — | empty |
//!
//! Bytes carry `f64` bits exactly by construction — NaN payloads, ±Inf,
//! −0.0 and subnormals included — which is why a TCP shard reproduces an
//! in-process shard *bit for bit* and the all-reduce stays deterministic
//! across transports. [`decode`] treats a payload as outside input: the
//! header length must fit inside the payload, the header must be UTF-8
//! JSON, the header's plane counts must account for the bulk byte for
//! byte (checked arithmetic), and an init must describe a model and a
//! training set the peer can build without tripping an assertion;
//! anything else is an error naming the field.

use photonn_autodiff::MaskGrads;
use photonn_donn::{DetectorConfig, DonnConfig, LossKind, MaskInit};
use photonn_math::{CGrid, Complex64, Grid};
use photonn_optics::{DiffractionModel, Distances, Geometry, KernelOptions, Padding};
use photonn_wire::Json;
use std::slice::ChunksExact;

/// Protocol revision; bumped on any wire-format change. The handshake
/// rejects mismatches loudly instead of mis-parsing silently.
/// (v2 added `heartbeat_ms` to `init` and the `heartbeat` message; v3
/// moved every `f64` plane out of the JSON into the binary bulk.)
pub const PROTOCOL_VERSION: usize = 3;

/// Bytes per `f64` in the bulk section.
const F64_BYTES: usize = std::mem::size_of::<f64>();

/// A message of the gradient protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Rank 0 → peer, once per session: model configuration, dataset and
    /// optional per-layer 0/1 freeze masks.
    Init {
        /// Full model/system configuration (kernel, detector, loss, …).
        config: DonnConfig,
        /// Training images, each `grid × grid`.
        images: Vec<Grid>,
        /// One label per image.
        labels: Vec<usize>,
        /// Optional per-layer freeze masks (frozen sparsity).
        freeze: Option<Vec<Grid>>,
        /// Liveness cadence the coordinator dictates: while computing a
        /// shard the peer emits a [`Message::Heartbeat`] every this many
        /// milliseconds so rank 0 can tell "slow" from "dead" in bounded
        /// time. `0` disables peer heartbeats (the pre-elastic behavior).
        heartbeat_ms: u64,
    },
    /// Peer → rank 0: handshake accepted.
    Ready,
    /// Peer → rank 0: still alive and computing — emitted between
    /// receiving a step and replying with its gradients, on the cadence
    /// the init handshake dictated. Carries no payload; its arrival *is*
    /// the information.
    Heartbeat,
    /// Rank 0 → peer, once per optimizer step: current masks plus this
    /// peer's shard (dataset indices) and the global batch size.
    Step {
        /// Current phase masks, one per layer.
        masks: Vec<Grid>,
        /// Dataset indices of this peer's shard.
        shard: Vec<usize>,
        /// Global batch size (the loss denominator).
        denom: usize,
    },
    /// Peer → rank 0: the shard's gradient contribution.
    Grads(MaskGrads),
    /// Rank 0 → peer: session over, exit the serve loop.
    Shutdown,
}

// --------------------------------------------------------------- encoding

fn usizes_to_json(v: &[usize]) -> Json {
    Json::Arr(v.iter().map(|&u| Json::Num(u as f64)).collect())
}

fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

/// Starts a payload: the header length, then the header, with room for
/// `bulk_bytes` more.
fn with_header(fields: Vec<(&str, Json)>, bulk_bytes: usize) -> Vec<u8> {
    let header = Json::object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect()).to_string();
    let header_len = u32::try_from(header.len()).expect("a protocol header stays far below 4 GiB");
    let mut out = Vec::with_capacity(4 + header.len() + bulk_bytes);
    out.extend_from_slice(&header_len.to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out
}

/// Appends values to the bulk as little-endian bytes.
fn put(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = f64>) {
    let start = out.len();
    out.resize(start + values.len() * F64_BYTES, 0);
    for (bytes, v) in out[start..].chunks_exact_mut(F64_BYTES).zip(values) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

fn planes_bytes<'a>(planes: impl IntoIterator<Item = &'a Grid>) -> usize {
    planes
        .into_iter()
        .map(|g| g.as_slice().len() * F64_BYTES)
        .sum()
}

/// Serializes a [`DonnConfig`] field by field. Every scalar survives the
/// JSON round trip bit-exactly, so the peer's rebuilt propagation kernel
/// is the same `f64`s as rank 0's.
pub fn config_to_json(c: &DonnConfig) -> Json {
    let model = match c.kernel_options.model {
        DiffractionModel::AngularSpectrum => "angular_spectrum",
        DiffractionModel::Fresnel => "fresnel",
    };
    let padding = match c.padding {
        Padding::None => Json::Str("none".into()),
        Padding::Double => Json::Str("double".into()),
        Padding::ToSize(n) => Json::Num(n as f64),
    };
    let loss = match c.loss {
        LossKind::MseSoftmax => "mse_softmax",
        LossKind::CrossEntropy => "cross_entropy",
    };
    let init = match c.init {
        MaskInit::Zeros => "zeros",
        MaskInit::UniformRandom => "uniform_random",
        MaskInit::SmoothRandom => "smooth_random",
    };
    Json::object(vec![
        ("grid".into(), Json::Num(c.geometry.grid as f64)),
        ("pixel_pitch".into(), Json::Num(c.geometry.pixel_pitch)),
        ("wavelength".into(), Json::Num(c.geometry.wavelength)),
        (
            "source_to_first".into(),
            Json::Num(c.distances.source_to_first),
        ),
        (
            "between_layers".into(),
            Json::Num(c.distances.between_layers),
        ),
        (
            "last_to_detector".into(),
            Json::Num(c.distances.last_to_detector),
        ),
        ("num_layers".into(), Json::Num(c.num_layers as f64)),
        (
            "num_classes".into(),
            Json::Num(c.detector.num_classes as f64),
        ),
        ("layout_rows".into(), Json::Num(c.detector.layout.0 as f64)),
        ("layout_cols".into(), Json::Num(c.detector.layout.1 as f64)),
        (
            "region_size".into(),
            Json::Num(c.detector.region_size as f64),
        ),
        ("diffraction_model".into(), Json::Str(model.into())),
        (
            "hard_evanescent_cutoff".into(),
            Json::Bool(c.kernel_options.hard_evanescent_cutoff),
        ),
        ("band_limit".into(), Json::Bool(c.kernel_options.band_limit)),
        ("padding".into(), padding),
        ("loss".into(), Json::Str(loss.into())),
        (
            "normalize_detector".into(),
            Json::Bool(c.normalize_detector),
        ),
        ("init".into(), Json::Str(init.into())),
    ])
}

/// Serializes a message to its wire payload.
pub fn encode(msg: &Message) -> Vec<u8> {
    match msg {
        Message::Init {
            config,
            images,
            labels,
            freeze,
            heartbeat_ms,
        } => {
            let mut fields = vec![
                ("type", Json::Str("init".into())),
                ("protocol", count(PROTOCOL_VERSION)),
                ("heartbeat_ms", Json::Num(*heartbeat_ms as f64)),
                ("config", config_to_json(config)),
                ("labels", usizes_to_json(labels)),
                ("images", count(images.len())),
            ];
            if let Some(fz) = freeze {
                fields.push(("freeze", count(fz.len())));
            }
            let planes = || images.iter().chain(freeze.iter().flatten());
            let mut out = with_header(fields, planes_bytes(planes()));
            for g in planes() {
                put(&mut out, g.as_slice().iter().copied());
            }
            out
        }
        Message::Ready => with_header(vec![("type", Json::Str("ready".into()))], 0),
        Message::Heartbeat => with_header(vec![("type", Json::Str("heartbeat".into()))], 0),
        Message::Step {
            masks,
            shard,
            denom,
        } => encode_steps(masks, &[shard.as_slice()], *denom)
            .pop()
            .expect("one shard, one payload"),
        Message::Grads(mg) => {
            let fields = vec![
                ("type", Json::Str("grads".into())),
                ("samples", count(mg.samples)),
                ("layers", count(mg.wgrads.len())),
            ];
            let values: usize = mg.wgrads.iter().map(|g| 2 * g.as_slice().len()).sum();
            let mut out = with_header(fields, (1 + values) * F64_BYTES);
            put(&mut out, std::iter::once(mg.loss));
            for g in &mg.wgrads {
                put(&mut out, g.as_slice().iter().map(|z| z.re));
                put(&mut out, g.as_slice().iter().map(|z| z.im));
            }
            out
        }
        Message::Shutdown => with_header(vec![("type", Json::Str("shutdown".into()))], 0),
    }
}

/// Serializes one step message per shard, writing the (identical, large)
/// mask bulk **once** instead of once per peer — the per-peer difference
/// is only the small header with the shard-index list. [`encode`] of a
/// [`Message::Step`] goes through here, so both produce the same bytes.
pub fn encode_steps(masks: &[Grid], shards: &[&[usize]], denom: usize) -> Vec<Vec<u8>> {
    let mut bulk = Vec::with_capacity(planes_bytes(masks));
    for g in masks {
        put(&mut bulk, g.as_slice().iter().copied());
    }
    shards
        .iter()
        .map(|shard| {
            let fields = vec![
                ("type", Json::Str("step".into())),
                ("denom", count(denom)),
                ("shard", usizes_to_json(shard)),
                ("masks", count(masks.len())),
            ];
            let mut out = with_header(fields, bulk.len());
            out.extend_from_slice(&bulk);
            out
        })
        .collect()
}

// --------------------------------------------------------------- decoding

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn num_field(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

fn positive_field(doc: &Json, key: &str) -> Result<f64, String> {
    Some(num_field(doc, key)?)
        .filter(|v| *v > 0.0 && v.is_finite())
        .ok_or_else(|| format!("\"{key}\" must be positive and finite"))
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, String> {
    field(doc, key)?
        .as_usize()
        .ok_or_else(|| format!("\"{key}\" is not a non-negative integer"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match field(doc, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("\"{key}\" is not a boolean")),
    }
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("\"{key}\" is not a string"))
}

fn usizes_from_json(value: &Json, what: &str) -> Result<Vec<usize>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| format!("{what} holds a non-index"))
        })
        .collect()
}

/// Splits a payload into its parsed JSON header and its bulk bytes.
fn split(payload: &[u8]) -> Result<(Json, &[u8]), String> {
    let (len, rest) = payload
        .split_first_chunk::<4>()
        .ok_or("payload shorter than its 4-byte header length")?;
    let header_len = u32::from_le_bytes(*len) as usize;
    if header_len > rest.len() {
        return Err(format!(
            "header length {header_len} exceeds the {} bytes after it",
            rest.len()
        ));
    }
    let (header, bulk) = rest.split_at(header_len);
    let header = std::str::from_utf8(header).map_err(|_| "header is not UTF-8".to_string())?;
    let doc = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    Ok((doc, bulk))
}

/// The `type` field of a payload's header, read without touching the
/// bulk (the chaos proxy keys its fault schedule on it).
pub(crate) fn message_type(payload: &[u8]) -> Result<String, String> {
    let (doc, _) = split(payload)?;
    Ok(str_field(&doc, "type")?.to_string())
}

/// Checks that `bulk` is exactly `count` planes of `n × n` values, as the
/// header field(s) named by `what` announced, and splits it into them.
fn planes<'a>(
    bulk: &'a [u8],
    n: usize,
    count: usize,
    what: &str,
) -> Result<ChunksExact<'a, u8>, String> {
    let plane = n
        .checked_mul(n)
        .and_then(|v| v.checked_mul(F64_BYTES))
        .filter(|&bytes| bytes > 0)
        .ok_or_else(|| format!("grid {n} has no plane size"))?;
    let need = plane
        .checked_mul(count)
        .ok_or_else(|| format!("{what}: {count} planes of {n}×{n} overflow a byte count"))?;
    if need != bulk.len() {
        return Err(format!(
            "{what}: {count} planes of {n}×{n} need {need} bulk bytes, the payload carries {}",
            bulk.len()
        ));
    }
    Ok(bulk.chunks_exact(plane))
}

fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(F64_BYTES)
        .map(|b| f64::from_le_bytes(b.try_into().expect("chunks_exact yields 8 bytes")))
}

fn plane_grid(n: usize, plane: &[u8]) -> Grid {
    Grid::from_vec(n, n, f64s(plane).collect())
}

/// Parses a [`DonnConfig`] from its [`config_to_json`] form, refusing any
/// value `Geometry::new` or `Donn::new` would panic on.
///
/// # Errors
///
/// Returns a description of the first missing, ill-typed or out-of-range
/// field.
pub fn config_from_json(doc: &Json) -> Result<DonnConfig, String> {
    let model = match str_field(doc, "diffraction_model")? {
        "angular_spectrum" => DiffractionModel::AngularSpectrum,
        "fresnel" => DiffractionModel::Fresnel,
        other => return Err(format!("unknown diffraction model \"{other}\"")),
    };
    let padding = match field(doc, "padding")? {
        Json::Str(s) if s == "none" => Padding::None,
        Json::Str(s) if s == "double" => Padding::Double,
        Json::Num(_) => Padding::ToSize(usize_field(doc, "padding")?),
        other => return Err(format!("unknown padding {other}")),
    };
    let loss = match str_field(doc, "loss")? {
        "mse_softmax" => LossKind::MseSoftmax,
        "cross_entropy" => LossKind::CrossEntropy,
        other => return Err(format!("unknown loss kind \"{other}\"")),
    };
    let init = match str_field(doc, "init")? {
        "zeros" => MaskInit::Zeros,
        "uniform_random" => MaskInit::UniformRandom,
        "smooth_random" => MaskInit::SmoothRandom,
        other => return Err(format!("unknown mask init \"{other}\"")),
    };
    let grid = usize_field(doc, "grid")?;
    if grid == 0 {
        return Err("\"grid\" must be positive".into());
    }
    let config = DonnConfig {
        geometry: Geometry::new(
            grid,
            positive_field(doc, "pixel_pitch")?,
            positive_field(doc, "wavelength")?,
        ),
        distances: Distances {
            source_to_first: num_field(doc, "source_to_first")?,
            between_layers: num_field(doc, "between_layers")?,
            last_to_detector: num_field(doc, "last_to_detector")?,
        },
        num_layers: usize_field(doc, "num_layers")?,
        detector: DetectorConfig {
            num_classes: usize_field(doc, "num_classes")?,
            layout: (
                usize_field(doc, "layout_rows")?,
                usize_field(doc, "layout_cols")?,
            ),
            region_size: usize_field(doc, "region_size")?,
        },
        kernel_options: KernelOptions {
            model,
            hard_evanescent_cutoff: bool_field(doc, "hard_evanescent_cutoff")?,
            band_limit: bool_field(doc, "band_limit")?,
        },
        padding,
        loss,
        normalize_detector: bool_field(doc, "normalize_detector")?,
        init,
    };
    if config.num_layers == 0 {
        return Err("\"num_layers\" must be positive".into());
    }
    if !config.distances.is_uniform() {
        return Err(
            "\"source_to_first\", \"between_layers\" and \"last_to_detector\" must be equal".into(),
        );
    }
    let detector = config.detector;
    let (rows, cols) = detector.layout;
    if rows == 0
        || cols == 0
        || rows
            .checked_mul(cols)
            .is_none_or(|cells| cells < detector.num_classes)
    {
        return Err(format!(
            "\"layout_rows\" x \"layout_cols\" = {rows}x{cols} cannot hold {} \"num_classes\"",
            detector.num_classes
        ));
    }
    let cell = (grid / rows).min(grid / cols);
    if detector.region_size > cell {
        return Err(format!(
            "\"region_size\" {} exceeds the {cell}-pixel layout cell",
            detector.region_size
        ));
    }
    if let Padding::ToSize(size) = config.padding {
        if size < grid {
            return Err(format!("\"padding\" {size} is smaller than the grid"));
        }
        // The kernel and every hop buffer are size² planes: an unbounded
        // size would let one init make the peer abort on allocation.
        if size > grid.saturating_mul(4) {
            return Err(format!("\"padding\" {size} exceeds 4 × the grid {grid}"));
        }
    }
    Ok(config)
}

/// Parses one wire payload. `grid` sizes every shipped plane; the
/// [`Init`] message carries its own grid inside the config, so pass the
/// *expected* grid (from the listener's own state, or `None` when first
/// decoding an init).
///
/// [`Init`]: Message::Init
///
/// # Errors
///
/// Returns a description of the first structural problem (malformed
/// header, unknown type, missing or ill-typed field, bulk size mismatch,
/// protocol version skew), or of the first init field the peer could not
/// build a model or train from.
pub fn decode(payload: &[u8], grid: Option<usize>) -> Result<Message, String> {
    let (doc, bulk) = split(payload)?;
    match str_field(&doc, "type")? {
        "init" => {
            let protocol = usize_field(&doc, "protocol")?;
            if protocol != PROTOCOL_VERSION {
                return Err(format!(
                    "protocol version {protocol}, this build speaks {PROTOCOL_VERSION}"
                ));
            }
            let config = config_from_json(field(&doc, "config")?)?;
            let n = config.grid();
            if let Some(expected) = grid {
                if n != expected {
                    return Err(format!("init for grid {n}, expected {expected}"));
                }
            }
            let labels = usizes_from_json(field(&doc, "labels")?, "labels")?;
            let images = usize_field(&doc, "images")?;
            if images == 0 {
                return Err("\"images\" must be positive".into());
            }
            if images != labels.len() {
                return Err(format!(
                    "\"images\" counts {images}, \"labels\" holds {}",
                    labels.len()
                ));
            }
            let classes = config.detector.num_classes;
            if let Some(label) = labels.iter().find(|&&label| label >= classes) {
                return Err(format!(
                    "\"labels\" holds {label}, outside {classes} classes"
                ));
            }
            let freeze = doc
                .get("freeze")
                .map(|_| usize_field(&doc, "freeze"))
                .transpose()?;
            if let Some(count) = freeze.filter(|&count| count != config.num_layers) {
                return Err(format!(
                    "\"freeze\" counts {count} masks for {} layers",
                    config.num_layers
                ));
            }
            let heartbeat_ms = usize_field(&doc, "heartbeat_ms")? as u64;
            let total = images
                .checked_add(freeze.unwrap_or(0))
                .ok_or("\"images\" + \"freeze\" overflows a plane count")?;
            let mut planes = planes(bulk, n, total, "\"images\" + \"freeze\"")?;
            Ok(Message::Init {
                config,
                images: planes
                    .by_ref()
                    .take(images)
                    .map(|p| plane_grid(n, p))
                    .collect(),
                labels,
                freeze: freeze.map(|_| planes.map(|p| plane_grid(n, p)).collect()),
                heartbeat_ms,
            })
        }
        "step" => {
            let n = grid.ok_or("step before init")?;
            let masks = planes(bulk, n, usize_field(&doc, "masks")?, "\"masks\"")?;
            Ok(Message::Step {
                denom: usize_field(&doc, "denom")?,
                shard: usizes_from_json(field(&doc, "shard")?, "shard")?,
                masks: masks.map(|p| plane_grid(n, p)).collect(),
            })
        }
        "grads" => {
            let n = grid.ok_or("grads before init")?;
            let layers = usize_field(&doc, "layers")?;
            let (loss, bulk) = bulk
                .split_first_chunk::<F64_BYTES>()
                .ok_or("grads bulk lacks the loss")?;
            let count = layers
                .checked_mul(2)
                .ok_or("\"layers\" overflows a plane count")?;
            let planes: Vec<&[u8]> = planes(bulk, n, count, "\"layers\"")?.collect();
            let wgrads = planes
                .chunks_exact(2)
                .map(|pair| {
                    let data = f64s(pair[0])
                        .zip(f64s(pair[1]))
                        .map(|(re, im)| Complex64 { re, im })
                        .collect();
                    CGrid::from_vec(n, n, data)
                })
                .collect();
            Ok(Message::Grads(MaskGrads {
                wgrads,
                loss: f64::from_le_bytes(*loss),
                samples: usize_field(&doc, "samples")?,
            }))
        }
        kind @ ("ready" | "heartbeat" | "shutdown") => {
            if !bulk.is_empty() {
                return Err(format!("\"{kind}\" carries {} bulk bytes", bulk.len()));
            }
            Ok(match kind {
                "ready" => Message::Ready,
                "heartbeat" => Message::Heartbeat,
                _ => Message::Shutdown,
            })
        }
        other => Err(format!("unknown message type \"{other}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_math::Rng;

    fn noisy_grid(n: usize, rng: &mut Rng) -> Grid {
        Grid::from_fn(n, n, |_, _| rng.uniform_in(-3.0, 3.0))
    }

    #[test]
    fn config_roundtrips_every_field() {
        let mut cfg = DonnConfig::scaled(20);
        cfg.loss = LossKind::CrossEntropy;
        cfg.padding = Padding::ToSize(40);
        cfg.kernel_options.band_limit = true;
        cfg.init = MaskInit::UniformRandom;
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back, cfg);
        // And the paper config, including its exact f64 geometry.
        let paper = DonnConfig::paper();
        assert_eq!(config_from_json(&config_to_json(&paper)).unwrap(), paper);
    }

    #[test]
    fn init_roundtrips_with_and_without_freeze() {
        let mut rng = Rng::seed_from(9);
        let cfg = DonnConfig::scaled(16);
        let msg = Message::Init {
            config: cfg,
            images: vec![noisy_grid(16, &mut rng), noisy_grid(16, &mut rng)],
            labels: vec![3, 7],
            freeze: Some(vec![Grid::full(16, 16, 1.0); 3]),
            heartbeat_ms: 250,
        };
        assert_eq!(decode(&encode(&msg), None).unwrap(), msg);
        let bare = Message::Init {
            config: cfg,
            images: vec![noisy_grid(16, &mut rng)],
            labels: vec![0],
            freeze: None,
            heartbeat_ms: 0,
        };
        assert_eq!(decode(&encode(&bare), Some(16)).unwrap(), bare);
    }

    #[test]
    fn step_and_grads_roundtrip_bit_exactly() {
        let mut rng = Rng::seed_from(4);
        let step = Message::Step {
            masks: vec![noisy_grid(8, &mut rng); 3],
            shard: vec![5, 1, 9],
            denom: 12,
        };
        assert_eq!(decode(&encode(&step), Some(8)).unwrap(), step);

        let grads = Message::Grads(MaskGrads {
            wgrads: vec![CGrid::from_fn(8, 8, |r, c| Complex64 {
                re: (r as f64 + 0.1) / 3.0,
                im: -(c as f64) / 7.0,
            })],
            loss: 0.1 + 0.2, // a value whose decimal form needs full precision
            samples: 3,
        });
        let decoded = decode(&encode(&grads), Some(8)).unwrap();
        match (&decoded, &grads) {
            (Message::Grads(a), Message::Grads(b)) => {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss bits");
                assert_eq!(a.wgrads, b.wgrads);
                assert_eq!(a.samples, b.samples);
            }
            // Name what actually arrived so a chaos-test failure is
            // diagnosable straight from the CI log.
            (other, _) => panic!("expected Message::Grads back, decoded {other:?}"),
        }
    }

    #[test]
    fn encode_steps_is_byte_identical_to_per_message_encode() {
        let mut rng = Rng::seed_from(6);
        let masks = vec![noisy_grid(8, &mut rng), noisy_grid(8, &mut rng)];
        let batch: Vec<usize> = (0..7).collect();
        let shards: Vec<&[usize]> = vec![&batch[0..4], &batch[4..7]];
        let texts = encode_steps(&masks, &shards, 7);
        assert_eq!(texts.len(), 2);
        for (text, shard) in texts.iter().zip(&shards) {
            let expected = encode(&Message::Step {
                masks: masks.clone(),
                shard: shard.to_vec(),
                denom: 7,
            });
            assert_eq!(text, &expected);
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in [Message::Ready, Message::Heartbeat, Message::Shutdown] {
            assert_eq!(decode(&encode(&msg), None).unwrap(), msg);
        }
    }

    #[test]
    fn non_finite_and_edge_values_roundtrip_bit_exactly() {
        // A NaN with a payload, ±Inf, −0.0 and a subnormal: none of them
        // survives JSON's number syntax, and all of them must survive the
        // bulk through every message that carries planes.
        let specials = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1),
        ];
        let plane = |shift: usize| {
            Grid::from_fn(16, 16, |r, c| {
                specials[(r * 16 + c + shift) % specials.len()]
            })
        };
        let bits = |gs: &[Grid]| -> Vec<u64> {
            gs.iter()
                .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let images = vec![plane(0), plane(1)];
        let freeze = vec![plane(2), plane(3), plane(4)];
        let init = Message::Init {
            config: DonnConfig::scaled(16),
            images: images.clone(),
            labels: vec![1, 2],
            freeze: Some(freeze.clone()),
            heartbeat_ms: 7,
        };
        match decode(&encode(&init), None).unwrap() {
            Message::Init {
                images: got_images,
                freeze: Some(got_freeze),
                ..
            } => {
                assert_eq!(bits(&got_images), bits(&images), "init images");
                assert_eq!(bits(&got_freeze), bits(&freeze), "init freeze");
            }
            other => panic!("expected Message::Init back, decoded {other:?}"),
        }

        let masks = vec![plane(1), plane(3), plane(0)];
        let step = Message::Step {
            masks: masks.clone(),
            shard: vec![4, 2],
            denom: 6,
        };
        match decode(&encode(&step), Some(16)).unwrap() {
            Message::Step { masks: got, .. } => assert_eq!(bits(&got), bits(&masks), "masks"),
            other => panic!("expected Message::Step back, decoded {other:?}"),
        }

        let wgrads = vec![CGrid::from_fn(16, 16, |r, c| Complex64 {
            re: specials[(r + c) % specials.len()],
            im: specials[(r * c + 2) % specials.len()],
        })];
        let cbits = |gs: &[CGrid]| -> Vec<(u64, u64)> {
            gs.iter()
                .flat_map(|g| {
                    g.as_slice()
                        .iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                })
                .collect()
        };
        for loss in specials {
            let grads = Message::Grads(MaskGrads {
                wgrads: wgrads.clone(),
                loss,
                samples: 2,
            });
            match decode(&encode(&grads), Some(16)).unwrap() {
                Message::Grads(mg) => {
                    assert_eq!(mg.loss.to_bits(), loss.to_bits(), "loss");
                    assert_eq!(cbits(&mg.wgrads), cbits(&wgrads), "gradient planes");
                }
                other => panic!("expected Message::Grads back, decoded {other:?}"),
            }
        }
    }

    /// A payload from a hand-written header and bulk.
    fn raw(header: &[u8], bulk: &[u8]) -> Vec<u8> {
        let mut out = (header.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(header);
        out.extend_from_slice(bulk);
        out
    }

    /// `payload` with its header text rewritten by `edit`.
    fn edit_header(payload: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
        let (len, rest) = payload.split_first_chunk::<4>().unwrap();
        let (header, bulk) = rest.split_at(u32::from_le_bytes(*len) as usize);
        raw(edit(std::str::from_utf8(header).unwrap()).as_bytes(), bulk)
    }

    /// Asserts that `payload` is rejected with an error mentioning `needle`.
    fn rejects(payload: &[u8], grid: Option<usize>, needle: &str) {
        match decode(payload, grid) {
            Err(e) => assert!(e.contains(needle), "error {e:?} does not name {needle:?}"),
            Ok(msg) => panic!("decoded {msg:?}, expected an error naming {needle:?}"),
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        rejects(&raw(b"{}", &[]), None, "type");
        rejects(&raw(b"{\"type\":\"warp\"}", &[]), None, "warp");
        let one_mask = raw(
            b"{\"type\":\"step\",\"denom\":4,\"shard\":[0],\"masks\":1}",
            &[0; 8],
        );
        rejects(&one_mask, Some(2), "masks");
        rejects(&one_mask, None, "step before init");
        rejects(
            &raw(b"{\"type\":\"grads\",\"samples\":1,\"layers\":1}", &[]),
            Some(2),
            "loss",
        );

        let init = encode(&Message::Init {
            config: DonnConfig::scaled(16),
            images: vec![Grid::zeros(16, 16)],
            labels: vec![5],
            freeze: None,
            heartbeat_ms: 20,
        });
        assert!(decode(&init, None).is_ok());
        let skewed = edit_header(&init, |h| {
            h.replace(
                &format!("\"protocol\":{PROTOCOL_VERSION}"),
                "\"protocol\":99",
            )
        });
        rejects(&skewed, None, "protocol");
        for bad in ["-3.7", "2.5", "-1", "1e300", "null"] {
            let header = edit_header(&init, |h| {
                h.replace("\"heartbeat_ms\":20", &format!("\"heartbeat_ms\":{bad}"))
            });
            rejects(&header, None, "heartbeat_ms");
        }
        let unlabeled = edit_header(&init, |h| h.replace("\"labels\":[5]", "\"labels\":[]"));
        rejects(&unlabeled, None, "labels");
        // Values the peer would panic on — in `Geometry::new`, `Donn::new`
        // or training — are refused by name. The old value stays in the
        // header under another key.
        for (key, value) in [
            ("grid", "0"),
            ("pixel_pitch", "-1e-5"),
            ("wavelength", "0"),
            ("num_layers", "0"),
            ("between_layers", "0.5"),
            ("layout_rows", "0"),
            ("layout_cols", "1"),
            ("region_size", "9"),
            ("padding", "8"),
            ("padding", "65"),
            ("labels", "[10]"),
        ] {
            let header = edit_header(&init, |h| {
                h.replace(
                    &format!("\"{key}\":"),
                    &format!("\"{key}\":{value},\"was\":"),
                )
            });
            rejects(&header, None, key);
        }
        let empty = encode(&Message::Init {
            config: DonnConfig::scaled(16),
            images: Vec::new(),
            labels: Vec::new(),
            freeze: None,
            heartbeat_ms: 20,
        });
        rejects(&empty, None, "images");
        let short_freeze = encode(&Message::Init {
            config: DonnConfig::scaled(16),
            images: vec![Grid::zeros(16, 16)],
            labels: vec![5],
            freeze: Some(vec![Grid::zeros(16, 16); 2]),
            heartbeat_ms: 20,
        });
        rejects(&short_freeze, None, "freeze");

        // The bulk must be exactly what the header's counts announce.
        let step = encode(&Message::Step {
            masks: vec![Grid::zeros(4, 4); 2],
            shard: vec![1],
            denom: 2,
        });
        let grads = encode(&Message::Grads(MaskGrads {
            wgrads: vec![CGrid::zeros(4, 4)],
            loss: 0.5,
            samples: 1,
        }));
        for (payload, grid, field) in [
            (&init, None, "images"),
            (&step, Some(4), "masks"),
            (&grads, Some(4), "layers"),
        ] {
            rejects(&payload[..payload.len() - 1], grid, field);
            let mut long = payload.clone();
            long.push(0);
            rejects(&long, grid, field);
        }
        let mut ready = encode(&Message::Ready);
        ready.push(0);
        rejects(&ready, None, "ready");
        let overflow = edit_header(&step, |h| {
            h.replace("\"masks\":2", "\"masks\":4611686018427387904")
        });
        rejects(&overflow, Some(4), "overflow");

        // The header itself: its length must fit and it must be UTF-8 JSON.
        let mut past = step.clone();
        past[..4].copy_from_slice(&(step.len() as u32 - 3).to_le_bytes());
        rejects(&past, Some(4), "header length");
        rejects(&[1, 0], None, "header length");
        rejects(&raw(&[0xff, 0xfe], &[]), None, "UTF-8");
        rejects(&raw(b"{\"type\":", &[]), None, "header");
    }
}
