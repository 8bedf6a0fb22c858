//! Durable on-disk serialization of checkpoint state (DESIGN §13).
//!
//! A hand-rolled, versioned binary format — no external serialization
//! crates, matching the PR 1 dependency policy. The container is
//!
//! ```text
//! magic    [u8; 8]  b"SLAKSNAP"
//! version  u32      format version (currently 2)
//! fp_len   u32      length of the config-fingerprint string
//! fp       [u8]     UTF-8 fingerprint: benchmark/scheme/cores/seed/cp-mode
//! len      u64      payload length in bytes
//! checksum u64      FNV-1a over the payload
//! payload  [u8]     model state (engine/facade defined, little-endian)
//! ```
//!
//! The fingerprint pins a snapshot to the run configuration that produced
//! it: a resume with a different benchmark, scheme (including scheme
//! parameters), core count, seed or checkpoint mode is refused with
//! [`PersistError::ConfigMismatch`] rather than silently producing a
//! nonsense simulation. Writes go through [`write_atomic`]: the bytes land
//! in a sibling temp file which is fsynced and renamed over the target, so
//! a crash mid-write can never leave a torn snapshot under the final name.

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic identifying a slacksim snapshot container.
pub const MAGIC: [u8; 8] = *b"SLAKSNAP";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 2;

/// Everything that can go wrong while persisting or restoring a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error (after bounded retries, for writes).
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The container was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The file ended before the declared structure was complete.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The snapshot was produced under a different run configuration.
    ConfigMismatch {
        /// Fingerprint of the current run configuration.
        expected: String,
        /// Fingerprint recorded in the snapshot header.
        found: String,
    },
    /// The payload decoded to something structurally impossible.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a slacksim snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "snapshot file is truncated"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: run is [{expected}] but snapshot was taken under [{found}]"
            ),
            PersistError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a 64-bit hash; cheap, dependency-free payload checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer and return the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejects anything other than 0/1).
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its stored bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| PersistError::Corrupt("non-UTF-8 string"))
    }

    /// Error unless the whole buffer was consumed — catches payloads with
    /// trailing garbage, which indicate an encode/decode skew.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after payload"))
        }
    }
}

/// Wrap a payload in the versioned snapshot container.
pub fn encode_container(fingerprint: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + fingerprint.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(fingerprint.len() as u32).to_le_bytes());
    out.extend_from_slice(fingerprint.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a snapshot container and return `(fingerprint, payload)`.
///
/// Checks magic, format version, structural completeness and the payload
/// checksum; the caller compares the fingerprint against its own run
/// configuration (see [`check_fingerprint`]).
pub fn decode_container(bytes: &[u8]) -> Result<(&str, &[u8]), PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let fp = std::str::from_utf8(r.bytes()?)
        .map_err(|_| PersistError::Corrupt("non-UTF-8 fingerprint"))?;
    let len = r.u64()? as usize;
    let expected = r.u64()?;
    let payload = r.take(len)?;
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes after payload"));
    }
    let found = fnv1a(payload);
    if found != expected {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok((fp, payload))
}

/// Compare a snapshot fingerprint against the current run configuration.
pub fn check_fingerprint(expected: &str, found: &str) -> Result<(), PersistError> {
    if expected == found {
        Ok(())
    } else {
        Err(PersistError::ConfigMismatch {
            expected: expected.to_string(),
            found: found.to_string(),
        })
    }
}

/// Retry backoff schedule for transient I/O errors during atomic writes.
const RETRY_BACKOFF: [Duration; 2] = [Duration::from_millis(10), Duration::from_millis(50)];

/// Atomically replace `path` with `bytes`: write to a sibling temp file,
/// fsync, then rename over the target. Transient I/O errors are retried
/// with bounded backoff (three attempts total); the temp file is removed
/// on failure so aborted writes leave no debris.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_sibling(path);
    let mut last_err: Option<io::Error> = None;
    for (attempt, _) in (0..=RETRY_BACKOFF.len()).enumerate() {
        if attempt > 0 {
            std::thread::sleep(RETRY_BACKOFF[attempt - 1]);
        }
        match try_write(&tmp, path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                last_err = Some(e);
            }
        }
    }
    Err(PersistError::Io(
        last_err.expect("at least one attempt ran"),
    ))
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn try_write(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(-0.15625);
        w.bytes(b"abc");
        w.str("fingerprint");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.15625);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "fingerprint");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_not_panics() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(PersistError::Truncated)));
        }
    }

    #[test]
    fn container_round_trip() {
        let payload = b"some payload bytes";
        let bytes = encode_container("bench=fft;cores=8", payload);
        let (fp, body) = decode_container(&bytes).unwrap();
        assert_eq!(fp, "bench=fft;cores=8");
        assert_eq!(body, payload);
    }

    #[test]
    fn container_detects_bad_magic_version_checksum_truncation() {
        let bytes = encode_container("fp", b"payload");

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::BadMagic)
        ));

        let mut bad = bytes.clone();
        bad[8] = 0xfe; // version low byte
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::UnsupportedVersion(_))
        ));

        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // flip a payload bit
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        for cut in 0..bytes.len() {
            match decode_container(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated container at {cut} decoded successfully"),
            }
        }
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        assert!(check_fingerprint("a", "a").is_ok());
        let err = check_fingerprint("run-a", "snap-b").unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("run-a"));
        assert!(err.to_string().contains("snap-b"));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("slacksim-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
