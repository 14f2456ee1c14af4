//! Length-prefixed message framing over any byte stream.
//!
//! TCP is a byte stream with no message boundaries, so every
//! `photonn-dist` protocol message travels as one *frame*: a 4-byte
//! little-endian payload length followed by that many payload bytes. The
//! payload is opaque here — `photonn_dist::proto` gives it its layout (a
//! small JSON header, then raw `f64` planes). The reader enforces a hard
//! size cap so a corrupt or hostile length prefix cannot trigger an
//! arbitrary-size allocation.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (1 GiB). The largest real message is
/// `photonn-dist`'s full-dataset init handshake, which ships each image as
/// a raw `f64` plane (0.32 MB per grid-200 image), so about 3,300
/// paper-native images fit in one frame; a paper-scale 60k-sample dataset
/// does **not** fit and needs a chunked handshake. An oversized *send* is a clean
/// [`FrameError::TooLarge`], not a panic, so a coordinator refuses the
/// session instead of aborting; on the read side the cap keeps a corrupt
/// or hostile length prefix from triggering an arbitrary-size allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Errors from frame reading.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(io::Error),
    /// The stream closed cleanly before a length prefix (end of session).
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap of {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(inner) => inner,
            FrameError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, "stream closed"),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Writes one framed message (length prefix + payload) and flushes.
///
/// # Errors
///
/// Returns any transport error, or `InvalidInput` when `payload` exceeds
/// [`MAX_FRAME_BYTES`] (e.g. an init handshake shipping a dataset too
/// large for one frame) — the message is then not sent at all, so the
/// stream stays consistent and the caller can surface the refusal.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge(payload.len()).to_string(),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one framed message. [`FrameError::Closed`] distinguishes a clean
/// end-of-stream (peer hung up between messages) from a mid-frame EOF,
/// which surfaces as [`FrameError::Io`] with `UnexpectedEof`.
///
/// The payload buffer grows with the bytes actually received rather than
/// being preallocated at the advertised length, so a corrupt length prefix
/// *below* [`MAX_FRAME_BYTES`] followed by a short stream costs only the
/// bytes that arrived, never the advertised allocation.
///
/// # Errors
///
/// Returns [`FrameError`] on transport failure, clean close, or an
/// oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no bytes at all" (clean close) from a torn prefix.
    match r.read(&mut len_buf).map_err(FrameError::Io)? {
        0 => return Err(FrameError::Closed),
        n => r.read_exact(&mut len_buf[n..]).map_err(FrameError::Io)?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    // take + read_to_end grows the buffer as bytes arrive; a mid-frame EOF
    // surfaces as UnexpectedEof instead of handing back a short payload.
    let mut payload = Vec::new();
    let got = r
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(FrameError::Io)?;
    if got < len {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended {got} bytes into a {len}-byte frame"),
        )));
    }
    Ok(payload)
}

/// `true` when an I/O error is a read/write *timeout* (the socket's
/// `set_read_timeout` deadline elapsing surfaces as `WouldBlock` on Unix
/// and `TimedOut` on Windows) rather than a transport failure. Timeouts
/// are the one retryable error class: a peer that is alive but slow keeps
/// heartbeating, so the reader loops; everything else means the
/// connection is gone.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_preserves_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "second message é😀".as_bytes()).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), "second message é😀".as_bytes());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend((u32::MAX).to_le_bytes());
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn torn_prefix_is_io_error_not_clean_close() {
        let mut r = Cursor::new(vec![1u8, 0]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        buf.extend(10u32.to_le_bytes());
        buf.extend(b"short");
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn binary_payload_roundtrips_unchanged() {
        // Raw f64 bytes, NaN included: the frame layer never looks inside.
        let payload: Vec<u8> = [f64::NAN, -0.0, f64::INFINITY, 1.5]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .chain([0xff, 0xfe])
            .collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn timeout_classifier_only_matches_timeouts() {
        assert!(is_timeout(&io::Error::from(io::ErrorKind::WouldBlock)));
        assert!(is_timeout(&io::Error::from(io::ErrorKind::TimedOut)));
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::InvalidData,
        ] {
            assert!(!is_timeout(&io::Error::from(kind)), "{kind:?}");
        }
    }

    /// A tiny xorshift so the corruption property tests stay seeded and
    /// dependency-free (`photonn-wire` sits below `photonn-math`).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn sample_frame(rng: &mut XorShift) -> Vec<u8> {
        let len = (rng.next() % 64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        buf
    }

    #[test]
    fn property_truncation_at_every_byte_errors_cleanly() {
        // Cutting a valid frame at any byte boundary must yield Closed
        // (nothing at all) or an Io error (torn prefix / mid-frame EOF) —
        // never a panic, never a short payload handed back as success.
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for _ in 0..16 {
            let frame = sample_frame(&mut rng);
            for cut in 0..frame.len() {
                let mut r = Cursor::new(frame[..cut].to_vec());
                match read_frame(&mut r) {
                    Err(FrameError::Closed) => assert_eq!(cut, 0, "Closed only with no bytes"),
                    Err(FrameError::Io(e)) => assert!(cut > 0, "torn read at {cut}: {e}"),
                    Err(other) => panic!("cut at {cut}: unexpected {other}"),
                    Ok(p) => panic!("cut at {cut} of {} decoded {p:?}", frame.len()),
                }
            }
        }
    }

    #[test]
    fn property_random_byte_corruption_never_panics_or_overallocates() {
        // Flip random bytes of valid frames: the reader must return *some*
        // Result without panicking, and an inflated-but-under-cap length
        // prefix over a short stream must cost only the bytes that arrived
        // (mid-frame EOF), not the advertised allocation.
        let mut rng = XorShift(0xdeadbeefcafe1234);
        for _ in 0..64 {
            let mut frame = sample_frame(&mut rng);
            let flips = 1 + (rng.next() % 4) as usize;
            for _ in 0..flips {
                let at = (rng.next() as usize) % frame.len();
                frame[at] ^= (rng.next() % 255) as u8 + 1;
            }
            let mut r = Cursor::new(frame.clone());
            let _ = read_frame(&mut r); // any Ok/Err is fine; panics are not
        }
        // The targeted version of the allocation property: a prefix
        // claiming MAX_FRAME_BYTES over a 3-byte stream.
        let mut buf = Vec::new();
        buf.extend((MAX_FRAME_BYTES as u32).to_le_bytes());
        buf.extend(b"abc");
        let mut r = Cursor::new(buf);
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
            }
            other => panic!("expected mid-frame EOF, got {other:?}"),
        }
    }

    #[test]
    fn property_corrupt_length_prefix_roundtrip_survivors_decode_exactly() {
        // Corrupting only the *payload* of a frame (never the prefix) must
        // still read back exactly len bytes — framing never desyncs on
        // payload content.
        let mut rng = XorShift(0x0123456789abcdef);
        for _ in 0..32 {
            let mut frame = sample_frame(&mut rng);
            if frame.len() > 4 {
                let at = 4 + (rng.next() as usize) % (frame.len() - 4);
                frame[at] = rng.next() as u8;
            }
            let expected_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            let mut r = Cursor::new(frame);
            let got = read_frame(&mut r).expect("payload corruption stays in-frame");
            assert_eq!(got.len(), expected_len);
        }
    }
}
