//! Trace file persistence: save generated traces and replay captures.
//!
//! The on-disk format is an 8-byte magic, a little-endian `u64` record
//! count, then per record a little-endian `u32` length and that many
//! bytes of one tuple in the `qap-types` wire encoding — the same bytes
//! an inter-host transfer would carry, so a saved trace doubles as a
//! wire-format regression fixture.
//!
//! [`read_trace`] decodes every record out of one reused buffer, so a
//! record costs no allocation beyond the tuple it decodes to.
//!
//! **Hostile input.** Both header fields are bounded by the file's size
//! before anything is sized from them. The up-front `Vec` reservation
//! is capped at one tuple per 6 bytes of file (the smallest record),
//! and a record that claims more bytes than the file has left is
//! rejected before the buffer grows, so a corrupt header costs no large
//! allocation. Errors are typed: [`TraceFileError::BadMagic`] for a
//! foreign file, [`TraceFileError::Io`] for one shorter than its
//! headers claim, [`TraceFileError::Corrupt`] for a record that does
//! not decode to exactly one tuple (bad tag, invalid UTF-8, trailing
//! bytes).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use qap_types::{decode_tuple, encode_tuple, Tuple};

const MAGIC: &[u8; 8] = b"QAPTRC01";

/// Magic plus record count.
const HEADER_LEN: u64 = 16;

/// The smallest possible record: a 4-byte length and a tuple's 2-byte
/// arity header.
const MIN_RECORD_LEN: u64 = 6;

/// Errors raised while reading or writing trace files.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// A tuple failed to decode.
    Corrupt(qap_types::TypeError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O: {e}"),
            TraceFileError::BadMagic => write!(f, "not a qap trace file (bad magic)"),
            TraceFileError::Corrupt(e) => write!(f, "corrupt trace file: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes a trace to a file.
pub fn write_trace(path: impl AsRef<Path>, trace: &[Tuple]) -> Result<(), TraceFileError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for t in trace {
        let bytes = encode_tuple(t);
        w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace previously written with [`write_trace`]. The path
/// must name a regular file: its size bounds the headers (see the
/// module docs).
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<Tuple>, TraceFileError> {
    let file = File::open(path)?;
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "not a regular file").into());
    }
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    // Bytes of the file not yet read.
    let mut left = meta.len().saturating_sub(HEADER_LEN);
    let mut trace = Vec::with_capacity(count.min(left / MIN_RECORD_LEN) as usize);
    let mut buf = Vec::new();
    for _ in 0..count {
        let mut len_bytes = [0u8; 4];
        r.read_exact(&mut len_bytes)?;
        let len = u64::from(u32::from_le_bytes(len_bytes));
        left = left.saturating_sub(4);
        if len > left {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "record longer than the rest of the file",
            )
            .into());
        }
        left -= len;
        buf.resize(len as usize, 0);
        r.read_exact(&mut buf)?;
        trace.push(decode_tuple(&buf[..]).map_err(TraceFileError::Corrupt)?);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TraceConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qap-trace-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_a_generated_trace() {
        let trace = generate(&TraceConfig::tiny(81));
        let path = tmp("roundtrip.qtr");
        write_trace(&path, &trace).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty.qtr");
        write_trace(&path, &[]).unwrap();
        assert!(read_trace(&path).unwrap().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_non_trace_files() {
        let path = tmp("garbage.qtr");
        std::fs::write(&path, b"definitely not a trace").unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::BadMagic
        ));
        std::fs::remove_file(path).ok();
    }

    /// A header and the given records, each as raw length + bytes.
    fn raw_trace(count: u64, records: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&count.to_le_bytes());
        for (len, body) in records {
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(body);
        }
        out
    }

    #[test]
    fn rejects_trailing_bytes_in_a_record() {
        let t = encode_tuple(&Tuple::new(vec![qap_types::Value::UInt(7)]));
        let mut body = t.to_vec();
        body.push(0xAB);
        let path = tmp("trailing.qtr");
        std::fs::write(&path, raw_trace(1, &[(body.len() as u32, &body)])).unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::Corrupt(qap_types::TypeError::Corrupt(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_a_bad_tag_as_corrupt() {
        let path = tmp("bad-tag.qtr");
        std::fs::write(&path, raw_trace(1, &[(3, &[0, 1, 99])])).unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::Corrupt(qap_types::TypeError::BadTag(99))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_files() {
        let trace = generate(&TraceConfig::tiny(82));
        let path = tmp("truncated.qtr");
        write_trace(&path, &trace).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::Io(_)
        ));
        std::fs::remove_file(path).ok();
    }
}
