//! Compact wire encoding for tuples crossing host boundaries.
//!
//! The cluster simulator charges network load in both tuples/sec and
//! bytes/sec; the byte figure comes from this encoding, which mirrors the
//! simple tagged binary layout a real inter-Gigascope transfer uses.
//!
//! Two granularities are provided:
//!
//! - [`encode_tuple`]/[`decode_tuple`] — one tuple, one buffer (trace
//!   files, tests);
//! - [`encode_batch`]/[`decode_batch`] — a length-prefixed **frame**
//!   carrying a whole batch, the unit the threaded cluster runner ships
//!   over its bounded boundary channels. A frame is
//!   `[u32 payload_len][u32 tuple_count][tuple bytes…]`, where the
//!   payload is exactly the concatenation of [`encode_tuple`] encodings
//!   — so `payload_len == Σ encoded_len(t)` and the measured frame
//!   bytes stay in lock-step with the Section 4.2.1 cost model's
//!   per-tuple size estimator.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{Column, ColumnBatch, ColumnData, Tuple, TypeError, TypeResult, Value};

const TAG_NULL: u8 = 0;
const TAG_UINT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// Lane tag marking an untyped (all-NULL) column in a columnar frame.
/// Reuses the NULL value tag; the remaining lane tags are the value
/// tags themselves, plus [`LANE_MIXED`] for the fallback lane.
const LANE_NONE: u8 = TAG_NULL;
const LANE_MIXED: u8 = 5;
/// Lane tag for a dictionary-encoded string lane: the distinct-string
/// table once, then one `u32` code per row.
const LANE_DICT: u8 = 6;

/// Byte length of a frame header: `u32` payload length plus `u32`
/// tuple count.
pub const FRAME_HEADER_LEN: usize = 8;

/// High bit of the frame header's count word, set when the payload is
/// column-contiguous ([`encode_column_batch`]) rather than row-major
/// ([`encode_batch`]). Row batches never reach 2³¹ tuples (the batch
/// size is config-bounded), so the bit is free. A row decoder handed a
/// columnar frame sees an absurd count and fails with a typed error
/// rather than misparsing; [`decode_frame_into`] dispatches on the bit.
pub const COLUMNAR_FLAG: u32 = 1 << 31;

/// Largest payload a frame header's `u32` length word can describe.
/// Encoders refuse ([`TypeError::FrameTooLarge`]) rather than emit a
/// silently truncated length and a corrupt frame.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Largest tuple/row count a frame header can carry: the count word's
/// high bit is the [`COLUMNAR_FLAG`], so counts stop one short of 2³¹.
pub const MAX_FRAME_COUNT: usize = (COLUMNAR_FLAG - 1) as usize;

/// Validates that a frame of `count` tuples and `payload` bytes fits
/// the `u32` header fields.
fn check_frame_limits(count: usize, payload: usize) -> TypeResult<()> {
    if count > MAX_FRAME_COUNT {
        return Err(TypeError::FrameTooLarge {
            context: "tuple count",
            size: count,
            limit: MAX_FRAME_COUNT,
        });
    }
    if payload > MAX_FRAME_PAYLOAD {
        return Err(TypeError::FrameTooLarge {
            context: "frame payload",
            size: payload,
            limit: MAX_FRAME_PAYLOAD,
        });
    }
    Ok(())
}

/// Appends one tuple's encoding to a growing buffer.
fn encode_tuple_into(tuple: &Tuple, buf: &mut BytesMut) {
    buf.put_u16(tuple.arity() as u16);
    for v in tuple.values() {
        encode_value_into(v, buf);
    }
}

/// Encodes a tuple into a freshly allocated byte buffer.
pub fn encode_tuple(tuple: &Tuple) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(tuple));
    encode_tuple_into(tuple, &mut buf);
    buf.freeze()
}

/// Exact payload length in bytes of a frame carrying `batch` — the sum
/// of the tuples' [`encoded_len`]s, excluding the
/// [`FRAME_HEADER_LEN`]-byte header.
pub fn encoded_batch_len(batch: &[Tuple]) -> usize {
    batch.iter().map(encoded_len).sum()
}

/// Encodes a batch of tuples into one length-prefixed frame, reusing
/// `scratch` as the staging buffer (its allocation is retained across
/// calls, so steady-state framing does no buffer growth).
///
/// Frame layout: `[u32 payload_len][u32 tuple_count][payload]`, payload
/// being the concatenation of [`encode_tuple`] encodings. The returned
/// [`Bytes`] is self-contained; `scratch` is left empty with its
/// capacity intact.
///
/// Batches whose payload or tuple count overflow the `u32` header
/// fields — or whose tuples overflow the `u16` per-tuple arity header —
/// are rejected with [`TypeError::FrameTooLarge`] *before* any bytes
/// are staged; a silently length-truncated (corrupt) frame is never
/// produced.
pub fn encode_batch(batch: &[Tuple], scratch: &mut BytesMut) -> TypeResult<Bytes> {
    scratch.clear();
    let payload = encoded_batch_len(batch);
    check_frame_limits(batch.len(), payload)?;
    for t in batch {
        if t.arity() > u16::MAX as usize {
            return Err(TypeError::FrameTooLarge {
                context: "tuple arity",
                size: t.arity(),
                limit: u16::MAX as usize,
            });
        }
    }
    scratch.reserve(FRAME_HEADER_LEN + payload);
    scratch.put_u32(payload as u32);
    scratch.put_u32(batch.len() as u32);
    for t in batch {
        encode_tuple_into(t, scratch);
    }
    debug_assert_eq!(scratch.len(), FRAME_HEADER_LEN + payload);
    Ok(scratch.split().freeze())
}

/// Decodes a frame produced by [`encode_batch`] into a fresh vector.
pub fn decode_batch(frame: Bytes) -> TypeResult<Vec<Tuple>> {
    let mut out = Vec::new();
    decode_batch_into(frame, &mut out)?;
    Ok(out)
}

/// Decodes a frame produced by [`encode_batch`], appending the tuples
/// to `out` (callers recycle the vector to keep the decode path
/// allocation-free at steady state).
///
/// Rejects truncated or oversized frames, count/length disagreements,
/// and malformed tuple payloads with typed [`TypeError`]s — a corrupt
/// frame never panics and never yields partial output beyond what was
/// already appended.
pub fn decode_batch_into(mut frame: Bytes, out: &mut Vec<Tuple>) -> TypeResult<()> {
    if frame.remaining() < FRAME_HEADER_LEN {
        return Err(TypeError::Truncated {
            context: "frame header",
            need: FRAME_HEADER_LEN,
            have: frame.remaining(),
        });
    }
    let payload = frame.get_u32() as usize;
    let count = frame.get_u32() as usize;
    if frame.remaining() != payload {
        return Err(TypeError::FrameLengthMismatch {
            declared: payload,
            actual: frame.remaining(),
        });
    }
    // Every tuple costs at least its 2-byte arity header; a count that
    // cannot fit the payload is corrupt (and must not drive a huge
    // `reserve`).
    if count * 2 > payload {
        return Err(TypeError::Corrupt("tuple count exceeds frame payload"));
    }
    out.reserve(count);
    for _ in 0..count {
        out.push(decode_tuple_from(&mut frame)?);
    }
    if frame.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after frame payload"));
    }
    Ok(())
}

/// Whether a frame's payload is column-contiguous (produced by
/// [`encode_column_batch`]) rather than row-major. Answers `false` for
/// anything shorter than a header; the decoder will report the
/// truncation properly.
#[inline]
pub fn frame_is_columnar(frame: &[u8]) -> bool {
    frame.len() >= FRAME_HEADER_LEN && frame[4] & 0x80 != 0
}

/// Payload byte length of the value body (excluding the 1-byte tag) —
/// shared between [`encoded_len`] and the mixed-lane columnar encoder.
#[inline]
fn value_body_len(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::UInt(_) | Value::Int(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => 4 + s.len(),
    }
}

/// Byte length of one encoded column: lane tag, null-mask flag,
/// optional mask, lane body.
fn encoded_column_len(col: &Column) -> usize {
    let mask = if col.has_nulls() { col.len() } else { 0 };
    let lane = match col.data() {
        None => 0,
        Some(ColumnData::UInt(_)) | Some(ColumnData::Int(_)) => 8 * col.len(),
        Some(ColumnData::Bool(_)) => col.len(),
        Some(ColumnData::Str(l)) => l.iter().map(|s| 4 + s.len()).sum(),
        Some(ColumnData::Dict(d)) => {
            4 + d.values().iter().map(|s| 4 + s.len()).sum::<usize>() + 4 * d.len()
        }
        Some(ColumnData::Mixed(l)) => l.iter().map(|v| 1 + value_body_len(v)).sum(),
    };
    2 + mask + lane
}

/// Exact payload length in bytes of a columnar frame carrying `batch`,
/// excluding the [`FRAME_HEADER_LEN`]-byte header.
pub fn encoded_column_batch_len(batch: &ColumnBatch) -> usize {
    2 + batch
        .columns()
        .iter()
        .map(encoded_column_len)
        .sum::<usize>()
}

/// Encodes a column batch into one length-prefixed frame, reusing
/// `scratch` exactly as [`encode_batch`] does.
///
/// Frame layout: `[u32 payload_len][u32 row_count | COLUMNAR_FLAG]`
/// then `[u16 arity]` and, per column: `[u8 lane_tag][u8 has_mask]`,
/// `row_count` mask bytes when `has_mask` is 1, and the lane body laid
/// out contiguously (`u64`s for UInt, `i64`s for Int, one byte per
/// Bool, `u32`-length-prefixed UTF-8 per Str, tagged [`Value`]
/// encodings per Mixed entry; untyped all-NULL columns ship no body at
/// all). Decoding a columnar frame yields exactly the tuples the row
/// frame of the same batch would — the two encodings are
/// interchangeable on the wire.
///
/// The same size discipline as [`encode_batch`]: payloads, row counts
/// or arities that overflow their header fields (`u32`/`u32`/`u16`)
/// report [`TypeError::FrameTooLarge`] instead of emitting a corrupt
/// frame. Per-string `u32` length prefixes cannot overflow once the
/// whole payload fits (each string costs `4 + len` payload bytes).
pub fn encode_column_batch(batch: &ColumnBatch, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    scratch.clear();
    let payload = encoded_column_batch_len(batch);
    check_frame_limits(batch.rows(), payload)?;
    if batch.arity() > u16::MAX as usize {
        return Err(TypeError::FrameTooLarge {
            context: "column batch arity",
            size: batch.arity(),
            limit: u16::MAX as usize,
        });
    }
    scratch.reserve(FRAME_HEADER_LEN + payload);
    scratch.put_u32(payload as u32);
    scratch.put_u32(batch.rows() as u32 | COLUMNAR_FLAG);
    scratch.put_u16(batch.arity() as u16);
    for col in batch.columns() {
        let tag = match col.data() {
            None => LANE_NONE,
            Some(ColumnData::UInt(_)) => TAG_UINT,
            Some(ColumnData::Int(_)) => TAG_INT,
            Some(ColumnData::Bool(_)) => TAG_BOOL,
            Some(ColumnData::Str(_)) => TAG_STR,
            Some(ColumnData::Dict(_)) => LANE_DICT,
            Some(ColumnData::Mixed(_)) => LANE_MIXED,
        };
        scratch.put_u8(tag);
        scratch.put_u8(u8::from(col.has_nulls()));
        if col.has_nulls() {
            for &n in col.null_mask() {
                scratch.put_u8(u8::from(n));
            }
        }
        match col.data() {
            None => {}
            Some(ColumnData::UInt(l)) => {
                for &x in l {
                    scratch.put_u64(x);
                }
            }
            Some(ColumnData::Int(l)) => {
                for &x in l {
                    scratch.put_i64(x);
                }
            }
            Some(ColumnData::Bool(l)) => {
                for &b in l {
                    scratch.put_u8(u8::from(b));
                }
            }
            Some(ColumnData::Str(l)) => {
                for s in l {
                    scratch.put_u32(s.len() as u32);
                    scratch.put_slice(s.as_bytes());
                }
            }
            Some(ColumnData::Dict(d)) => {
                // Distinct-string table first, then one code per row —
                // repeated strings ship once per frame.
                scratch.put_u32(d.values().len() as u32);
                for s in d.values() {
                    scratch.put_u32(s.len() as u32);
                    scratch.put_slice(s.as_bytes());
                }
                for &c in d.codes() {
                    scratch.put_u32(c);
                }
            }
            Some(ColumnData::Mixed(l)) => {
                for v in l {
                    encode_value_into(v, scratch);
                }
            }
        }
    }
    debug_assert_eq!(scratch.len(), FRAME_HEADER_LEN + payload);
    Ok(scratch.split().freeze())
}

/// Appends one tagged value encoding (the unit of both the row tuple
/// payload and the columnar mixed lane).
fn encode_value_into(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::UInt(x) => {
            buf.put_u8(TAG_UINT);
            buf.put_u64(*x);
        }
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*x);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Decodes a columnar frame produced by [`encode_column_batch`].
///
/// The same corruption discipline as [`decode_batch_into`]: truncated
/// lanes, count/length disagreements, bad tags and invalid UTF-8 all
/// report typed [`TypeError`]s, never panics.
pub fn decode_column_batch(mut frame: Bytes) -> TypeResult<ColumnBatch> {
    if frame.remaining() < FRAME_HEADER_LEN {
        return Err(TypeError::Truncated {
            context: "frame header",
            need: FRAME_HEADER_LEN,
            have: frame.remaining(),
        });
    }
    let payload = frame.get_u32() as usize;
    let count = frame.get_u32();
    if count & COLUMNAR_FLAG == 0 {
        return Err(TypeError::Corrupt("row frame passed to columnar decoder"));
    }
    let rows = (count & !COLUMNAR_FLAG) as usize;
    if frame.remaining() != payload {
        return Err(TypeError::FrameLengthMismatch {
            declared: payload,
            actual: frame.remaining(),
        });
    }
    want(&frame, "columnar arity", 2)?;
    let arity = frame.get_u16() as usize;
    // Every column costs at least its 2-byte lane header; an arity the
    // payload cannot fit is corrupt (and must not drive a pre-sized
    // allocation off a wire-controlled count).
    if arity * 2 > frame.remaining() {
        return Err(TypeError::Corrupt("column count exceeds frame payload"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column_from(&mut frame, rows)?);
    }
    if frame.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after columnar payload"));
    }
    Ok(ColumnBatch::from_columns_with_rows(columns, rows))
}

/// Decodes one column (lane tag, optional null mask, lane body) off the
/// front of a columnar frame payload.
fn decode_column_from(buf: &mut Bytes, rows: usize) -> TypeResult<Column> {
    want(buf, "lane header", 2)?;
    let tag = buf.get_u8();
    let has_mask = buf.get_u8() != 0;
    let mut nulls = Vec::new();
    if has_mask {
        want(buf, "null mask", rows)?;
        nulls.reserve(rows);
        for _ in 0..rows {
            nulls.push(buf.get_u8() != 0);
        }
    }
    let data = match tag {
        LANE_NONE => {
            // Untyped column: every row is NULL by invariant.
            if has_mask && nulls.iter().any(|&n| !n) {
                return Err(TypeError::Corrupt("non-null row in untyped column"));
            }
            return Ok(Column::all_null(rows));
        }
        TAG_UINT => {
            want(buf, "uint lane", 8 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_u64());
            }
            ColumnData::UInt(l)
        }
        TAG_INT => {
            want(buf, "int lane", 8 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_i64());
            }
            ColumnData::Int(l)
        }
        TAG_BOOL => {
            want(buf, "bool lane", rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(buf.get_u8() != 0);
            }
            ColumnData::Bool(l)
        }
        TAG_STR => {
            // Each string costs at least its 4-byte length prefix:
            // bound the pre-sized allocation by the bytes actually
            // present before trusting the wire-supplied row count.
            want(buf, "string lane", 4 * rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(decode_str_from(buf, "string length", "string body")?);
            }
            ColumnData::Str(l)
        }
        LANE_DICT => {
            want(buf, "dictionary size", 4)?;
            let distinct = buf.get_u32() as usize;
            // Each table entry costs at least its 4-byte length prefix,
            // and the codes cost 4 bytes per row: bound both pre-sized
            // allocations by the bytes actually present.
            want(buf, "dictionary table", 4 * distinct)?;
            let mut values = Vec::with_capacity(distinct);
            for _ in 0..distinct {
                values.push(decode_str_from(
                    buf,
                    "dictionary entry length",
                    "dictionary entry body",
                )?);
            }
            want(buf, "dictionary codes", 4 * rows)?;
            let mut codes = Vec::with_capacity(rows);
            for i in 0..rows {
                let c = buf.get_u32();
                let null_here = nulls.get(i).copied().unwrap_or(false);
                if c == crate::DICT_NULL_CODE {
                    if !null_here {
                        return Err(TypeError::Corrupt("null dictionary code on non-null row"));
                    }
                } else if c as usize >= distinct {
                    return Err(TypeError::Corrupt("dictionary code out of range"));
                }
                codes.push(c);
            }
            ColumnData::Dict(crate::DictLane::from_parts(codes, values))
        }
        LANE_MIXED => {
            // Each mixed entry costs at least its 1-byte value tag.
            want(buf, "mixed lane", rows)?;
            let mut l = Vec::with_capacity(rows);
            for _ in 0..rows {
                l.push(decode_value_from(buf)?);
            }
            ColumnData::Mixed(l)
        }
        other => return Err(TypeError::BadTag(other)),
    };
    Ok(Column::from_parts(data, nulls))
}

/// Which representation a boundary frame carried, as reported by
/// [`decode_frame_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedFrame {
    /// Row frame: the decoded tuples were appended to the row buffer.
    Rows,
    /// Columnar frame: the column batch was replaced with the decoded
    /// columns (the row buffer is untouched).
    Columns,
}

/// Decodes either kind of boundary frame, dispatching on
/// [`COLUMNAR_FLAG`]: row frames append to `rows`, columnar frames
/// replace `columns`. Returns which buffer received the batch so the
/// engine can route it down the matching path.
pub fn decode_frame_into(
    frame: Bytes,
    rows: &mut Vec<Tuple>,
    columns: &mut ColumnBatch,
) -> TypeResult<DecodedFrame> {
    if frame_is_columnar(&frame) {
        *columns = decode_column_batch(frame)?;
        Ok(DecodedFrame::Columns)
    } else {
        decode_batch_into(frame, rows)?;
        Ok(DecodedFrame::Rows)
    }
}

/// Exact length in bytes [`encode_tuple`] will produce, without encoding.
///
/// The cost model uses this as `out_tuple_size` when charging network
/// bytes, so it must stay in lock-step with the encoder.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .values()
        .iter()
        .map(|v| 1 + value_body_len(v))
        .sum::<usize>()
}

/// Decodes a tuple previously produced by [`encode_tuple`] from any
/// [`Buf`]: a wire [`Bytes`] view or a borrowed `&[u8]` (the trace
/// reader decodes every record out of one reused buffer this way). The
/// buffer must hold exactly one tuple; bytes left over after it are
/// [`TypeError::Corrupt`].
pub fn decode_tuple(mut buf: impl Buf) -> TypeResult<Tuple> {
    let tuple = decode_tuple_from(&mut buf)?;
    if buf.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after tuple"));
    }
    Ok(tuple)
}

/// Ensures `buf` holds at least `need` more bytes before a read.
fn want<B: Buf>(buf: &B, context: &'static str, need: usize) -> TypeResult<()> {
    let have = buf.remaining();
    if have < need {
        return Err(TypeError::Truncated {
            context,
            need,
            have,
        });
    }
    Ok(())
}

/// Decodes one tuple off the front of `buf`, advancing the cursor —
/// the inner loop of [`decode_batch_into`]'s frame walk. Every
/// short-buffer case reports a typed [`TypeError::Truncated`] (never a
/// panic), unknown tags report [`TypeError::BadTag`].
fn decode_tuple_from<B: Buf>(buf: &mut B) -> TypeResult<Tuple> {
    want(buf, "arity header", 2)?;
    let arity = buf.get_u16() as usize;
    // Each value costs at least its 1-byte tag: bound the pre-sized
    // allocation by the bytes actually present.
    want(buf, "tuple values", arity)?;
    let mut tuple = Tuple::with_capacity(arity);
    for _ in 0..arity {
        tuple.push(decode_value_from(buf)?);
    }
    Ok(tuple)
}

/// Decodes one tagged value off the front of `buf` — shared by the row
/// tuple walk and the columnar mixed lane.
fn decode_value_from<B: Buf>(buf: &mut B) -> TypeResult<Value> {
    want(buf, "value tag", 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_UINT => {
            want(buf, "uint value", 8)?;
            Value::UInt(buf.get_u64())
        }
        TAG_INT => {
            want(buf, "int value", 8)?;
            Value::Int(buf.get_i64())
        }
        TAG_BOOL => {
            want(buf, "bool value", 1)?;
            Value::Bool(buf.get_u8() != 0)
        }
        TAG_STR => Value::Str(decode_str_from(buf, "string length", "string body")?),
        other => return Err(TypeError::BadTag(other)),
    })
}

/// Decodes one `u32`-length-prefixed UTF-8 string off the front of
/// `buf`, straight from the buffer into its `Arc<str>`.
fn decode_str_from<B: Buf>(
    buf: &mut B,
    len_context: &'static str,
    body_context: &'static str,
) -> TypeResult<Arc<str>> {
    want(buf, len_context, 4)?;
    let len = buf.get_u32() as usize;
    want(buf, body_context, len)?;
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|_| TypeError::Corrupt("invalid utf-8"))?;
    let s = Arc::from(s);
    buf.advance(len);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn round_trip_all_value_kinds() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::UInt(u64::MAX),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::from("gigascope"),
        ]);
        let encoded = encode_tuple(&t);
        assert_eq!(encoded.len(), encoded_len(&t));
        assert_eq!(decode_tuple(encoded).unwrap(), t);
    }

    #[test]
    fn empty_tuple_round_trips() {
        let t = Tuple::default();
        assert_eq!(decode_tuple(encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_buffer_reports_typed_error() {
        let t = tuple![1u64, 2u64];
        let encoded = encode_tuple(&t);
        // Every prefix of the encoding must fail with a typed error,
        // never a panic.
        for cut in 0..encoded.len() {
            let truncated = encoded.slice(0..cut);
            let err = decode_tuple(truncated).unwrap_err();
            assert!(
                matches!(err, TypeError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    /// Every value kind, NULL and an empty string included.
    fn all_kinds() -> Tuple {
        Tuple::new(vec![
            Value::Null,
            Value::UInt(u64::MAX),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::from("gigascope"),
            Value::from(""),
        ])
    }

    #[test]
    fn slice_and_bytes_decode_agree_on_every_prefix() {
        let encoded = encode_tuple(&all_kinds());
        for cut in 0..=encoded.len() {
            let from_bytes = decode_tuple(encoded.slice(0..cut));
            let from_slice = decode_tuple(&encoded[..cut]);
            assert_eq!(from_slice, from_bytes, "cut at {cut}");
            if cut < encoded.len() {
                assert!(
                    matches!(from_slice, Err(TypeError::Truncated { .. })),
                    "cut at {cut}: {from_slice:?}"
                );
            }
        }
        assert_eq!(decode_tuple(&encoded[..]).unwrap(), all_kinds());
    }

    #[test]
    fn slice_and_bytes_decode_agree_on_bad_bytes() {
        let mut bad_utf8 = BytesMut::new();
        bad_utf8.put_u16(1);
        bad_utf8.put_u8(TAG_STR);
        bad_utf8.put_u32(2);
        bad_utf8.put_slice(&[0xFF, 0xFE]);
        let mut bad_tag = BytesMut::new();
        bad_tag.put_u16(1);
        bad_tag.put_u8(99);
        for (raw, want) in [
            (bad_utf8, TypeError::Corrupt("invalid utf-8")),
            (bad_tag, TypeError::BadTag(99)),
        ] {
            let raw = raw.freeze();
            assert_eq!(decode_tuple(&raw[..]), Err(want.clone()));
            assert_eq!(decode_tuple(raw), Err(want));
        }
    }

    #[test]
    fn trailing_bytes_after_a_tuple_are_corrupt() {
        let mut raw = BytesMut::new();
        raw.put_slice(&encode_tuple(&tuple![7u64]));
        raw.put_u8(0);
        let raw = raw.freeze();
        let want = Err(TypeError::Corrupt("trailing bytes after tuple"));
        assert_eq!(decode_tuple(&raw[..]), want);
        assert_eq!(decode_tuple(raw), want);
    }

    #[test]
    fn truncated_string_body_reports_typed_error() {
        let mut raw = BytesMut::new();
        raw.put_u16(1);
        raw.put_u8(4); // TAG_STR
        raw.put_u32(100); // declares 100 bytes, provides 2
        raw.put_slice(b"ab");
        assert!(matches!(
            decode_tuple(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "string body",
                need: 100,
                have: 2,
            }
        ));
    }

    #[test]
    fn garbage_tag_reports_bad_tag() {
        let mut raw = BytesMut::new();
        raw.put_u16(1);
        raw.put_u8(99);
        assert!(matches!(
            decode_tuple(raw.freeze()).unwrap_err(),
            TypeError::BadTag(99)
        ));
    }

    #[test]
    fn batch_round_trips_and_sizes_agree() {
        let batch = vec![
            tuple![1u64, 2u64],
            Tuple::new(vec![Value::Null, Value::from("frame"), Value::Bool(false)]),
            Tuple::default(),
        ];
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&batch, &mut scratch).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + encoded_batch_len(&batch));
        assert_eq!(
            encoded_batch_len(&batch),
            batch.iter().map(encoded_len).sum::<usize>()
        );
        assert_eq!(decode_batch(frame).unwrap(), batch);
        // Scratch is drained but keeps capacity for the next frame.
        assert!(scratch.is_empty());
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&[], &mut scratch).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN);
        assert_eq!(decode_batch(frame).unwrap(), Vec::<Tuple>::new());
    }

    #[test]
    fn zero_arity_batch_round_trips() {
        // A batch of arity-0 tuples is all headers and no bodies: each
        // tuple costs exactly its 2-byte arity header, which sits right
        // on the `count * 2 <= payload` sanity boundary.
        let batch = vec![Tuple::default(); 5];
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&batch, &mut scratch).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 2 * batch.len());
        assert_eq!(decode_batch(frame).unwrap(), batch);
    }

    #[test]
    fn zero_length_frame_is_truncated_not_panic() {
        assert!(matches!(
            decode_batch(Bytes::new()).unwrap_err(),
            TypeError::Truncated {
                context: "frame header",
                need: FRAME_HEADER_LEN,
                have: 0,
            }
        ));
    }

    #[test]
    fn empty_payload_with_nonzero_count_is_rejected() {
        // Header claims tuples but carries no payload for even their
        // arity headers: must be a typed corruption, not a bad decode.
        let mut raw = BytesMut::new();
        raw.put_u32(0); // payload_len
        raw.put_u32(3); // tuple_count
        assert!(matches!(
            decode_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt("tuple count exceeds frame payload")
        ));
    }

    #[test]
    fn empty_frame_prefixes_are_typed_errors() {
        // Every proper prefix of the canonical empty frame (header
        // only) fails typed; the full frame decodes to zero tuples.
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&[], &mut scratch).unwrap();
        for cut in 0..frame.len() {
            let err = decode_batch(frame.slice(0..cut)).unwrap_err();
            assert!(
                matches!(err, TypeError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
        assert!(decode_batch(frame).unwrap().is_empty());
    }

    #[test]
    fn scratch_reuse_is_stable_across_frames() {
        let mut scratch = BytesMut::new();
        let a = vec![tuple![7u64]];
        let b = vec![tuple![8u64, 9u64], tuple![10u64]];
        let fa = encode_batch(&a, &mut scratch).unwrap();
        let fb = encode_batch(&b, &mut scratch).unwrap();
        assert_eq!(decode_batch(fa).unwrap(), a);
        assert_eq!(decode_batch(fb).unwrap(), b);
    }

    #[test]
    fn frame_length_mismatch_is_rejected() {
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&[tuple![1u64]], &mut scratch).unwrap();
        let short = frame.slice(0..frame.len() - 1);
        assert!(matches!(
            decode_batch(short).unwrap_err(),
            TypeError::FrameLengthMismatch { .. }
        ));
    }

    #[test]
    fn truncated_frame_header_is_rejected() {
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&[tuple![1u64]], &mut scratch).unwrap();
        let stub = frame.slice(0..FRAME_HEADER_LEN - 1);
        assert!(matches!(
            decode_batch(stub).unwrap_err(),
            TypeError::Truncated {
                context: "frame header",
                ..
            }
        ));
    }

    #[test]
    fn oversize_payload_is_rejected_before_staging() {
        // 68 tuples sharing one 64 MiB Arc<str> describe a ~4.25 GiB
        // payload while occupying ~64 MiB of memory: the encoder must
        // refuse before reserving anything, instead of emitting a frame
        // whose u32 length word silently truncated.
        let big: Value = Value::from("x".repeat(64 << 20).as_str());
        let batch: Vec<Tuple> = (0..68).map(|_| Tuple::new(vec![big.clone()])).collect();
        assert!(encoded_batch_len(&batch) > MAX_FRAME_PAYLOAD);
        let mut scratch = BytesMut::new();
        let err = encode_batch(&batch, &mut scratch).unwrap_err();
        assert!(
            matches!(
                err,
                TypeError::FrameTooLarge {
                    context: "frame payload",
                    ..
                }
            ),
            "{err}"
        );
        assert!(scratch.is_empty(), "refused before staging any bytes");
        let cols = ColumnBatch::from_rows(&batch);
        assert!(matches!(
            encode_column_batch(&cols, &mut scratch).unwrap_err(),
            TypeError::FrameTooLarge {
                context: "frame payload",
                ..
            }
        ));
    }

    #[test]
    fn oversize_tuple_arity_is_rejected() {
        let wide = Tuple::new(vec![Value::Null; (u16::MAX as usize) + 1]);
        let mut scratch = BytesMut::new();
        assert!(matches!(
            encode_batch(std::slice::from_ref(&wide), &mut scratch).unwrap_err(),
            TypeError::FrameTooLarge {
                context: "tuple arity",
                ..
            }
        ));
        let cols = ColumnBatch::from_rows(&[wide]);
        assert!(matches!(
            encode_column_batch(&cols, &mut scratch).unwrap_err(),
            TypeError::FrameTooLarge {
                context: "column batch arity",
                ..
            }
        ));
    }

    #[test]
    fn absurd_column_count_is_rejected_before_reserve() {
        // Columnar frame claiming 65535 columns in a 4-byte payload.
        let mut raw = BytesMut::new();
        raw.put_u32(4);
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(u16::MAX);
        raw.put_u16(0);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt("column count exceeds frame payload")
        ));
    }

    #[test]
    fn absurd_string_lane_row_count_is_rejected_before_reserve() {
        // A columnar frame whose (masked) row count is enormous but
        // whose string lane holds almost nothing: the decoder must
        // reject on remaining bytes before pre-sizing the lane.
        let rows: u32 = 1 << 30;
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + 4); // arity word + lane header + one length prefix
        raw.put_u32(rows | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(4); // TAG_STR lane
        raw.put_u8(0); // no mask
        raw.put_u32(0); // a single empty-string prefix
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Truncated {
                context: "string lane",
                ..
            }
        ));
    }

    #[test]
    fn absurd_tuple_count_is_rejected_before_reserve() {
        let mut raw = BytesMut::new();
        raw.put_u32(2); // payload: one empty tuple (2-byte arity header)
        raw.put_u32(u32::MAX); // claims 4 billion tuples
        raw.put_u16(0);
        assert!(matches!(
            decode_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    /// A columnar frame must decode to exactly the tuples the row frame
    /// of the same batch decodes to.
    fn assert_interchangeable(rows: Vec<Tuple>) {
        let mut scratch = BytesMut::new();
        let row_frame = encode_batch(&rows, &mut scratch).unwrap();
        let batch = ColumnBatch::from_rows(&rows);
        let col_frame = encode_column_batch(&batch, &mut scratch).unwrap();
        assert!(!frame_is_columnar(&row_frame));
        assert!(frame_is_columnar(&col_frame));
        assert_eq!(
            col_frame.len(),
            FRAME_HEADER_LEN + encoded_column_batch_len(&batch)
        );
        let from_rows = decode_batch(row_frame.clone()).unwrap();
        let from_cols = decode_column_batch(col_frame.clone()).unwrap().to_rows();
        assert_eq!(from_cols, from_rows);
        assert_eq!(from_cols, rows);
        // The dispatching decoder routes each frame to the right buffer.
        let mut rbuf = Vec::new();
        let mut cbuf = ColumnBatch::default();
        assert_eq!(
            decode_frame_into(row_frame, &mut rbuf, &mut cbuf).unwrap(),
            DecodedFrame::Rows
        );
        assert_eq!(rbuf, rows);
        assert_eq!(
            decode_frame_into(col_frame, &mut rbuf, &mut cbuf).unwrap(),
            DecodedFrame::Columns
        );
        assert_eq!(cbuf.to_rows(), rows);
    }

    #[test]
    fn columnar_frame_interchangeable_uniform_uints() {
        assert_interchangeable(vec![tuple![1u64, 2u64], tuple![3u64, 4u64]]);
    }

    #[test]
    fn columnar_frame_interchangeable_all_kinds_and_nulls() {
        assert_interchangeable(vec![
            Tuple::new(vec![
                Value::Null,
                Value::UInt(u64::MAX),
                Value::from("tcp"),
                Value::Bool(true),
                Value::Int(i64::MIN),
            ]),
            Tuple::new(vec![
                Value::Int(-1),
                Value::Null,
                Value::from(""),
                Value::Bool(false),
                Value::Null,
            ]),
        ]);
    }

    #[test]
    fn columnar_frame_interchangeable_mixed_lane() {
        assert_interchangeable(vec![
            tuple![1u64],
            tuple![-2i64],
            Tuple::new(vec![Value::Null]),
            tuple!["x"],
            tuple![true],
        ]);
    }

    #[test]
    fn columnar_frame_interchangeable_dict_lane() {
        let rows = vec![
            tuple!["tcp", 1u64],
            tuple!["udp", 2u64],
            Tuple::new(vec![Value::Null, Value::UInt(3)]),
            tuple!["tcp", 4u64],
        ];
        let mut batch = ColumnBatch::from_rows(&rows);
        batch.dict_encode_strings();
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        assert_eq!(
            frame.len(),
            FRAME_HEADER_LEN + encoded_column_batch_len(&batch)
        );
        let decoded = decode_column_batch(frame).unwrap();
        // The dictionary representation survives the wire (the decoder
        // yields a Dict lane, not a rehydrated Str lane) and the row
        // view is identical.
        assert!(matches!(
            decoded.column(0).data(),
            Some(ColumnData::Dict(_))
        ));
        assert_eq!(decoded.to_rows(), rows);
    }

    #[test]
    fn dict_frame_ships_repeated_strings_once() {
        let repeated: Vec<Tuple> = (0..64).map(|_| tuple!["a-long-protocol-name"]).collect();
        let plain = ColumnBatch::from_rows(&repeated);
        let mut dict = plain.clone();
        dict.dict_encode_strings();
        assert!(encoded_column_batch_len(&dict) < encoded_column_batch_len(&plain) / 4);
    }

    #[test]
    fn dict_frame_code_out_of_range_is_rejected() {
        let mut batch = ColumnBatch::from_rows(&[tuple!["a"], tuple!["b"]]);
        batch.dict_encode_strings();
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        let mut raw = frame.to_vec();
        // Last 4 bytes are row 1's code; corrupt it past the table.
        let n = raw.len();
        raw[n - 4..].copy_from_slice(&9u32.to_be_bytes());
        assert!(matches!(
            decode_column_batch(Bytes::from(raw)).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn dict_frame_null_code_on_non_null_row_is_rejected() {
        let mut batch = ColumnBatch::from_rows(&[tuple!["a"], tuple!["b"]]);
        batch.dict_encode_strings();
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        let mut raw = frame.to_vec();
        let n = raw.len();
        raw[n - 4..].copy_from_slice(&crate::DICT_NULL_CODE.to_be_bytes());
        assert!(matches!(
            decode_column_batch(Bytes::from(raw)).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn columnar_frame_interchangeable_all_null_column() {
        assert_interchangeable(vec![
            Tuple::new(vec![Value::Null, Value::UInt(1)]),
            Tuple::new(vec![Value::Null, Value::UInt(2)]),
        ]);
    }

    #[test]
    fn columnar_frame_interchangeable_empty_batch() {
        assert_interchangeable(Vec::new());
    }

    #[test]
    fn columnar_frame_interchangeable_arity_zero_rows() {
        assert_interchangeable(vec![Tuple::default(), Tuple::default()]);
    }

    #[test]
    fn row_decoder_rejects_columnar_frame() {
        let batch = ColumnBatch::from_rows(&[tuple![1u64]]);
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        // The flagged count word is absurd as a row count; the row
        // decoder must fail typed, never misparse.
        assert!(decode_batch(frame).is_err());
    }

    #[test]
    fn columnar_decoder_rejects_row_frame() {
        let mut scratch = BytesMut::new();
        let frame = encode_batch(&[tuple![1u64]], &mut scratch).unwrap();
        assert!(matches!(
            decode_column_batch(frame).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn truncated_columnar_frame_reports_typed_errors() {
        let rows = vec![
            Tuple::new(vec![Value::UInt(7), Value::from("abc"), Value::Null]),
            Tuple::new(vec![Value::Int(-9), Value::from("d"), Value::Bool(true)]),
        ];
        let batch = ColumnBatch::from_rows(&rows);
        let mut scratch = BytesMut::new();
        let frame = encode_column_batch(&batch, &mut scratch).unwrap();
        for cut in 0..frame.len() {
            let err = decode_column_batch(frame.slice(0..cut)).unwrap_err();
            assert!(
                matches!(
                    err,
                    TypeError::Truncated { .. }
                        | TypeError::FrameLengthMismatch { .. }
                        | TypeError::Corrupt(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn columnar_garbage_lane_tag_reports_bad_tag() {
        let mut raw = BytesMut::new();
        raw.put_u32(4); // payload: arity word + lane header
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(99); // bogus lane tag
        raw.put_u8(0);
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::BadTag(99)
        ));
    }

    #[test]
    fn columnar_untyped_lane_with_non_null_row_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32(2 + 2 + 1); // arity + lane header + 1 mask byte
        raw.put_u32(1 | COLUMNAR_FLAG);
        raw.put_u16(1);
        raw.put_u8(0); // LANE_NONE
        raw.put_u8(1); // mask present
        raw.put_u8(0); // …claiming the row is non-null
        assert!(matches!(
            decode_column_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }

    #[test]
    fn columnar_scratch_reuse_is_stable_across_frames() {
        let mut scratch = BytesMut::new();
        let a = ColumnBatch::from_rows(&[tuple![7u64]]);
        let b = ColumnBatch::from_rows(&[tuple![8u64, "s"], tuple![9u64, "t"]]);
        let fa = encode_column_batch(&a, &mut scratch).unwrap();
        let fb = encode_column_batch(&b, &mut scratch).unwrap();
        assert_eq!(decode_column_batch(fa).unwrap().to_rows(), a.to_rows());
        assert_eq!(decode_column_batch(fb).unwrap().to_rows(), b.to_rows());
        assert!(scratch.is_empty());
    }

    #[test]
    fn trailing_bytes_after_counted_tuples_are_rejected() {
        // payload length covers two empty tuples but count says one.
        let mut raw = BytesMut::new();
        raw.put_u32(4);
        raw.put_u32(1);
        raw.put_u16(0);
        raw.put_u16(0);
        assert!(matches!(
            decode_batch(raw.freeze()).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }
}
