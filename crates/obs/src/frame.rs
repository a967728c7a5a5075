//! Length-prefixed framing for the suite's TCP protocols.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 (in practice: one JSON document produced by the
//! writers in this crate's [`json`](crate::json) module). The solver
//! service (`tsmo-serve`) and the distributed search mesh
//! (`tsmo-cluster`) both speak this framing, so it lives here with the
//! JSON support rather than in either protocol crate.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 MiB). A Solomon instance file is a
/// few kilobytes; anything near this limit is a protocol error, not data.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Writes one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Largest buffer a frame read reserves before its payload arrives. The
/// buffer grows only as bytes come in, so a header that declares
/// [`MAX_FRAME_LEN`] and then stalls pins this much, not 16 MiB.
const INITIAL_READ_CAPACITY: usize = 64 * 1024;

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages); EOF inside
/// a frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(INITIAL_READ_CAPACITY));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", payload.len()),
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "first").unwrap();
        write_frame(&mut buf, "{\"second\":2}").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("first"));
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"second\":2}")
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "complete").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
