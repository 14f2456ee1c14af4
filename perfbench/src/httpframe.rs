//! Client-side HTTP/1.1 response framing over a byte stream that may hold
//! several pipelined responses, or part of one.

/// One complete response at the front of a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Status code from the status line.
    pub status: u16,
    /// Byte range of the body within the buffer.
    pub body: std::ops::Range<usize>,
    /// Bytes the whole response occupies; drain these before the next.
    pub consumed: usize,
}

/// Largest header block accepted before the stream counts as broken.
const MAX_HEAD: usize = 16 * 1024;

/// Frames the response at the front of `buf`: `Ok(None)` while it is
/// still incomplete, `Err` when the bytes cannot be a response this
/// client asked for (no status line, no `Content-Length`).
pub fn parse_response(buf: &[u8]) -> Result<Option<Frame>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_HEAD {
            Err("response head exceeds 16 KiB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let body_start = head_end + 4;
    let end = body_start + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some(Frame {
        status,
        body: body_start..end,
        consumed: end,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn frames_pipelined_responses_one_at_a_time() {
        let mut stream = response(200, "{\"a\":1}");
        stream.extend(response(429, "{}"));
        stream.extend(response(200, "{\"b\":2}"));
        let mut buf = stream.clone();
        let mut seen = Vec::new();
        while let Some(f) = parse_response(&buf).unwrap() {
            seen.push((
                f.status,
                String::from_utf8(buf[f.body.clone()].to_vec()).unwrap(),
            ));
            buf.drain(..f.consumed);
        }
        assert!(buf.is_empty());
        assert_eq!(
            seen,
            vec![
                (200, "{\"a\":1}".to_string()),
                (429, "{}".to_string()),
                (200, "{\"b\":2}".to_string())
            ]
        );
    }

    #[test]
    fn every_split_point_is_partial_until_the_last_byte() {
        let one = response(200, "{\"logits\":[1,2,3]}");
        for cut in 0..one.len() {
            assert_eq!(parse_response(&one[..cut]).unwrap(), None, "cut at {cut}");
        }
        let f = parse_response(&one).unwrap().unwrap();
        assert_eq!(f.consumed, one.len());
        // A second response's first bytes behind the first change nothing.
        let mut two = one.clone();
        two.extend_from_slice(b"HTTP/1.1 2");
        assert_eq!(parse_response(&two).unwrap().unwrap(), f);
    }

    #[test]
    fn rejects_what_is_not_a_framed_response() {
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(parse_response(&vec![b'a'; MAX_HEAD + 1]).is_err());
        let empty = parse_response(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!((empty.status, empty.body.len()), (204, 0));
    }
}
