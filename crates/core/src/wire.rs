//! Shared little-endian record encoding for persisted artifacts.
//!
//! Both the model checkpoint format (`serve::checkpoint`, `.qorckpt`-style
//! streams) and the search-job format (`search::job`, `.qorjob` files) are
//! built from the same primitives:
//!
//! * a fixed 13-byte frame — 8 magic bytes, a `u32` format version, and a
//!   `u8` record kind,
//! * little-endian integers and raw IEEE-754 float bits (so round-trips
//!   are bit-exact),
//! * length-prefixed UTF-8 strings (`u16` length),
//! * a trailing FNV-1a checksum over every preceding byte.
//!
//! [`open`] verifies magic, version, and checksum **before** any record is
//! parsed, so truncation and bit flips surface as [`QorError::Corrupt`]
//! (and future versions as [`QorError::UnsupportedVersion`]) instead of
//! misparsed payloads. The bounds-checked [`Cursor`] then guarantees the
//! payload readers never panic on malformed input that slipped past a
//! caller-specific check.

use crate::error::QorError;
use crate::hash::fnv1a;

// ------------------------------------------------------------------ encode

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the raw IEEE-754 bits of an `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the raw IEEE-754 bits of an `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u16`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long for format");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Starts a record stream: magic, format version, and kind byte.
pub fn header(magic: &[u8; 8], version: u32, kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    out.push(kind);
    out
}

/// Appends the FNV-1a checksum over everything written so far, completing
/// the stream.
pub fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
    out
}

// ------------------------------------------------------------------ decode

/// A bounds-checked reader over a verified payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps raw payload bytes (normally produced by [`open`]).
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or a typed truncation error.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], QorError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                QorError::Corrupt(format!("truncated record: {what} at offset {}", self.pos))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn u8(&mut self, what: &str) -> Result<u8, QorError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn u16(&mut self, what: &str) -> Result<u16, QorError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn u32(&mut self, what: &str) -> Result<u32, QorError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn u64(&mut self, what: &str) -> Result<u64, QorError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f32` from raw bits.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn f32(&mut self, what: &str) -> Result<f32, QorError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` from raw bits.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn f64(&mut self, what: &str) -> Result<f64, QorError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads `n` consecutive `f32`s.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation or element-count overflow.
    pub fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, QorError> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| QorError::Corrupt(format!("{what}: element count overflow")))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation or non-UTF-8 bytes.
    pub fn str(&mut self, what: &str) -> Result<&'a str, QorError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| QorError::Corrupt(format!("{what}: name is not UTF-8")))
    }

    /// Whether every payload byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Unconsumed payload bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Verifies magic, version and the trailing checksum; returns the `kind`
/// byte and a [`Cursor`] over the payload.
///
/// # Errors
///
/// [`QorError::Corrupt`] for short streams, bad magic, or a checksum
/// mismatch; [`QorError::UnsupportedVersion`] for any version other than
/// `version`.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<(u8, Cursor<'a>), QorError> {
    let min = magic.len() + 4 + 1 + 8;
    if bytes.len() < min {
        return Err(QorError::Corrupt(format!(
            "record stream too short: {} bytes, need at least {min}",
            bytes.len()
        )));
    }
    if &bytes[..magic.len()] != magic {
        return Err(QorError::Corrupt("bad magic".into()));
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if found != version {
        return Err(QorError::UnsupportedVersion(found));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let actual = fnv1a(body);
    if stored != actual {
        return Err(QorError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let kind = bytes[12];
    Ok((kind, Cursor::new(&body[13..])))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"QORTEST\0";

    fn sample() -> Vec<u8> {
        let mut out = header(&MAGIC, 1, 7);
        put_u16(&mut out, 300);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_f32(&mut out, -1.5);
        put_f64(&mut out, std::f64::consts::PI);
        put_str(&mut out, "hello");
        seal(out)
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let bytes = sample();
        let (kind, mut c) = open(&bytes, &MAGIC, 1).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(c.u16("a").unwrap(), 300);
        assert_eq!(c.u32("b").unwrap(), 70_000);
        assert_eq!(c.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(c.f32("d").unwrap(), -1.5);
        assert_eq!(c.f64("e").unwrap(), std::f64::consts::PI);
        assert_eq!(c.str("f").unwrap(), "hello");
        assert!(c.done());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let bytes = sample();
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0xff;
            let result = open(&corrupt, &MAGIC, 1);
            assert!(
                matches!(
                    result,
                    Err(QorError::Corrupt(_) | QorError::UnsupportedVersion(_))
                ),
                "flip at {offset} was accepted"
            );
        }
    }

    #[test]
    fn truncations_and_short_streams_are_corrupt() {
        let bytes = sample();
        for len in 0..bytes.len() {
            assert!(matches!(
                open(&bytes[..len], &MAGIC, 1),
                Err(QorError::Corrupt(_) | QorError::UnsupportedVersion(_))
            ));
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let bytes = sample();
        match open(&bytes, &MAGIC, 2) {
            Err(QorError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
    }

    #[test]
    fn cursor_reads_past_the_end_fail_typed() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(c.u64("x").is_err());
        assert_eq!(c.u16("y").unwrap(), 0x0201);
        assert!(c.u8("z").is_err());
        assert!(Cursor::new(&[0xff, 0xff]).str("s").is_err());
    }
}
