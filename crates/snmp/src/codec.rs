//! BER-style TLV codec for SNMP messages.
//!
//! This is a faithful subset of BER: definite-length TLV framing,
//! minimal-octet two's-complement integers, base-128 OID arcs and the
//! application tags SNMP assigns to counters/gauges/timeticks. It is enough
//! to speak the protocol over a real socket and to exercise malformed-input
//! handling in tests.

use crate::oid::Oid;
use crate::pdu::{ErrorStatus, Message, Pdu, PduType, SnmpError, SnmpValue, VERSION_2C};

const TAG_INTEGER: u8 = 0x02;
const TAG_OCTET_STRING: u8 = 0x04;
const TAG_NULL: u8 = 0x05;
const TAG_OID: u8 = 0x06;
const TAG_SEQUENCE: u8 = 0x30;
const TAG_COUNTER: u8 = 0x41;
const TAG_GAUGE: u8 = 0x42;
const TAG_TIMETICKS: u8 = 0x43;
const TAG_NO_SUCH_OBJECT: u8 = 0x80;

fn put_length(buf: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        buf.push(len as u8);
    } else if len <= 0xFF {
        buf.extend_from_slice(&[0x81, len as u8]);
    } else {
        buf.push(0x82);
        buf.extend_from_slice(&(len as u16).to_be_bytes());
    }
}

fn put_tlv(buf: &mut Vec<u8>, tag: u8, body: &[u8]) {
    buf.push(tag);
    put_length(buf, body.len());
    buf.extend_from_slice(body);
}

fn encode_i64(v: i64) -> Vec<u8> {
    // Minimal two's-complement big-endian encoding.
    let bytes = v.to_be_bytes();
    let mut start = 0;
    while start < 7 {
        let cur = bytes[start];
        let next_hi = bytes[start + 1] & 0x80;
        if (cur == 0x00 && next_hi == 0) || (cur == 0xFF && next_hi != 0) {
            start += 1;
        } else {
            break;
        }
    }
    bytes[start..].to_vec()
}

fn encode_u64(v: u64) -> Vec<u8> {
    let bytes = v.to_be_bytes();
    let mut start = 0;
    while start < 7 && bytes[start] == 0 {
        start += 1;
    }
    let mut out = Vec::with_capacity(9);
    if bytes[start] & 0x80 != 0 {
        out.push(0); // keep the value positive
    }
    out.extend_from_slice(&bytes[start..]);
    out
}

fn encode_oid_body(oid: &Oid) -> Vec<u8> {
    let arcs = oid.arcs();
    let mut out = Vec::with_capacity(arcs.len() + 1);
    match arcs.len() {
        0 => {}
        1 => out.push((arcs[0] * 40) as u8),
        _ => {
            // First two arcs pack into one byte, which cannot represent a
            // second arc ≥ 40 (only legal under the rarely-used root arc
            // 2); clamp rather than corrupt neighbouring arcs.
            debug_assert!(arcs[1] < 40, "second OID arc ≥ 40 is unsupported");
            out.push((arcs[0] * 40 + arcs[1].min(39)) as u8);
            for &arc in &arcs[2..] {
                push_base128(&mut out, arc);
            }
        }
    }
    out
}

fn push_base128(out: &mut Vec<u8>, mut v: u32) {
    let mut tmp = [0u8; 5];
    let mut n = 0;
    loop {
        tmp[n] = (v & 0x7F) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            break;
        }
    }
    for i in (0..n).rev() {
        let mut byte = tmp[i];
        if i != 0 {
            byte |= 0x80;
        }
        out.push(byte);
    }
}

fn encode_value(buf: &mut Vec<u8>, value: &SnmpValue) {
    match value {
        SnmpValue::Int(v) => put_tlv(buf, TAG_INTEGER, &encode_i64(*v)),
        SnmpValue::Str(bytes) => put_tlv(buf, TAG_OCTET_STRING, bytes),
        SnmpValue::Oid(oid) => put_tlv(buf, TAG_OID, &encode_oid_body(oid)),
        SnmpValue::Null => put_tlv(buf, TAG_NULL, &[]),
        SnmpValue::Counter(v) => put_tlv(buf, TAG_COUNTER, &encode_u64(*v)),
        SnmpValue::Gauge(v) => put_tlv(buf, TAG_GAUGE, &encode_u64(*v)),
        SnmpValue::TimeTicks(v) => put_tlv(buf, TAG_TIMETICKS, &encode_u64(*v)),
        SnmpValue::NoSuchObject => put_tlv(buf, TAG_NO_SUCH_OBJECT, &[]),
    }
}

/// Encodes a full message to wire bytes.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    // varbind list
    let mut vbl = Vec::new();
    for (oid, value) in &msg.pdu.varbinds {
        let mut vb = Vec::new();
        put_tlv(&mut vb, TAG_OID, &encode_oid_body(oid));
        encode_value(&mut vb, value);
        put_tlv(&mut vbl, TAG_SEQUENCE, &vb);
    }
    // pdu body
    let mut pdu = Vec::new();
    put_tlv(&mut pdu, TAG_INTEGER, &encode_i64(msg.pdu.request_id));
    put_tlv(
        &mut pdu,
        TAG_INTEGER,
        &encode_i64(msg.pdu.error_status.code()),
    );
    put_tlv(&mut pdu, TAG_INTEGER, &encode_i64(msg.pdu.error_index));
    put_tlv(&mut pdu, TAG_SEQUENCE, &vbl);
    // message
    let mut body = Vec::new();
    put_tlv(&mut body, TAG_INTEGER, &encode_i64(VERSION_2C as i64));
    put_tlv(&mut body, TAG_OCTET_STRING, msg.community.as_bytes());
    put_tlv(&mut body, msg.pdu_type.tag(), &pdu);
    let mut out = Vec::new();
    put_tlv(&mut out, TAG_SEQUENCE, &body);
    out
}

/// A cursor over one TLV body: each read consumes from the front.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn err<T>(&self, what: &str) -> Result<T, SnmpError> {
        Err(SnmpError::Decode(what.to_owned()))
    }

    fn get_u8(&mut self) -> Result<u8, SnmpError> {
        let (&first, rest) = self
            .buf
            .split_first()
            .ok_or_else(|| SnmpError::Decode("truncated".into()))?;
        self.buf = rest;
        Ok(first)
    }

    fn get_length(&mut self) -> Result<usize, SnmpError> {
        let first = self.get_u8()?;
        if first < 0x80 {
            return Ok(first as usize);
        }
        match first {
            0x81 => Ok(self.get_u8()? as usize),
            0x82 => {
                let hi = self.get_u8()? as usize;
                let lo = self.get_u8()? as usize;
                Ok((hi << 8) | lo)
            }
            _ => self.err("unsupported length form"),
        }
    }

    fn get_tlv(&mut self) -> Result<(u8, &'a [u8]), SnmpError> {
        let tag = self.get_u8()?;
        let len = self.get_length()?;
        if self.buf.len() < len {
            return self.err("TLV body truncated");
        }
        let (body, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok((tag, body))
    }

    fn expect_tlv(&mut self, want: u8, what: &str) -> Result<&'a [u8], SnmpError> {
        let (tag, body) = self.get_tlv()?;
        if tag != want {
            return Err(SnmpError::Decode(format!(
                "expected {what} (tag {want:#x}), got tag {tag:#x}"
            )));
        }
        Ok(body)
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

fn decode_i64(body: &[u8]) -> Result<i64, SnmpError> {
    if body.is_empty() || body.len() > 8 {
        return Err(SnmpError::Decode("integer length".into()));
    }
    let mut v: i64 = if body[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in body {
        v = (v << 8) | b as i64;
    }
    Ok(v)
}

fn decode_u64(body: &[u8]) -> Result<u64, SnmpError> {
    if body.is_empty() || body.len() > 9 || (body.len() == 9 && body[0] != 0) {
        return Err(SnmpError::Decode("unsigned length".into()));
    }
    let mut v: u64 = 0;
    for &b in body {
        v = (v << 8) | b as u64;
    }
    Ok(v)
}

fn decode_oid_body(body: &[u8]) -> Result<Oid, SnmpError> {
    if body.is_empty() {
        return Ok(Oid::from_arcs(Vec::new()));
    }
    let mut arcs = Vec::with_capacity(body.len() + 1);
    arcs.push((body[0] / 40) as u32);
    arcs.push((body[0] % 40) as u32);
    let mut acc: u32 = 0;
    let mut mid = false;
    for &b in &body[1..] {
        acc = acc
            .checked_shl(7)
            .ok_or_else(|| SnmpError::Decode("oid arc overflow".into()))?
            | (b & 0x7F) as u32;
        if b & 0x80 != 0 {
            mid = true;
        } else {
            arcs.push(acc);
            acc = 0;
            mid = false;
        }
    }
    if mid {
        return Err(SnmpError::Decode("oid arc truncated".into()));
    }
    Ok(Oid::from_arcs(arcs))
}

fn decode_value(tag: u8, body: &[u8]) -> Result<SnmpValue, SnmpError> {
    match tag {
        TAG_INTEGER => Ok(SnmpValue::Int(decode_i64(body)?)),
        TAG_OCTET_STRING => Ok(SnmpValue::Str(body.to_vec())),
        TAG_OID => Ok(SnmpValue::Oid(decode_oid_body(body)?)),
        TAG_NULL => Ok(SnmpValue::Null),
        TAG_COUNTER => Ok(SnmpValue::Counter(decode_u64(body)?)),
        TAG_GAUGE => Ok(SnmpValue::Gauge(decode_u64(body)?)),
        TAG_TIMETICKS => Ok(SnmpValue::TimeTicks(decode_u64(body)?)),
        TAG_NO_SUCH_OBJECT => Ok(SnmpValue::NoSuchObject),
        _ => Err(SnmpError::Decode(format!("unknown value tag {tag:#x}"))),
    }
}

/// Decodes a full message from wire bytes.
pub fn decode_message(bytes: &[u8]) -> Result<Message, SnmpError> {
    let mut outer = Reader { buf: bytes };
    let body = outer.expect_tlv(TAG_SEQUENCE, "message sequence")?;
    if !outer.done() {
        return Err(SnmpError::Decode("trailing bytes after message".into()));
    }
    let mut r = Reader { buf: body };
    let version = decode_i64(r.expect_tlv(TAG_INTEGER, "version")?)?;
    if version != VERSION_2C as i64 {
        return Err(SnmpError::Decode(format!("version {version}")));
    }
    let community_raw = r.expect_tlv(TAG_OCTET_STRING, "community")?;
    let community = String::from_utf8(community_raw.to_vec())
        .map_err(|_| SnmpError::Decode("community utf8".into()))?;
    let (pdu_tag, pdu_body) = r.get_tlv()?;
    let pdu_type = PduType::from_tag(pdu_tag).ok_or_else(|| SnmpError::Decode("pdu tag".into()))?;
    let mut p = Reader { buf: pdu_body };
    let request_id = decode_i64(p.expect_tlv(TAG_INTEGER, "request id")?)?;
    let error_code = decode_i64(p.expect_tlv(TAG_INTEGER, "error status")?)?;
    let error_status =
        ErrorStatus::from_code(error_code).ok_or_else(|| SnmpError::Decode("error code".into()))?;
    let error_index = decode_i64(p.expect_tlv(TAG_INTEGER, "error index")?)?;
    let vbl = p.expect_tlv(TAG_SEQUENCE, "varbind list")?;
    let mut varbinds = Vec::new();
    let mut v = Reader { buf: vbl };
    while !v.done() {
        let vb = v.expect_tlv(TAG_SEQUENCE, "varbind")?;
        let mut b = Reader { buf: vb };
        let oid = decode_oid_body(b.expect_tlv(TAG_OID, "varbind oid")?)?;
        let (tag, val_body) = b.get_tlv()?;
        varbinds.push((oid, decode_value(tag, val_body)?));
    }
    Ok(Message {
        community,
        pdu_type,
        pdu: Pdu {
            request_id,
            error_status,
            error_index,
            varbinds,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> Message {
        Message {
            community: "public".into(),
            pdu_type: PduType::Response,
            pdu: Pdu {
                request_id: 12345,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                varbinds: vec![
                    (
                        Oid::parse("1.3.6.1.2.1.25.3.3.1.2.1").unwrap(),
                        SnmpValue::Gauge(73),
                    ),
                    (
                        Oid::parse("1.3.6.1.2.1.1.1.0").unwrap(),
                        SnmpValue::Str(b"worker-3".to_vec()),
                    ),
                    (
                        Oid::parse("1.3.6.1.2.1.1.3.0").unwrap(),
                        SnmpValue::TimeTicks(987654),
                    ),
                ],
            },
        }
    }

    #[test]
    fn message_roundtrip() {
        let msg = sample_message();
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_value_types_roundtrip() {
        let values = vec![
            SnmpValue::Int(0),
            SnmpValue::Int(-1),
            SnmpValue::Int(i64::MAX),
            SnmpValue::Int(i64::MIN),
            SnmpValue::Str(Vec::new()),
            SnmpValue::Str(vec![0xFF; 300]),
            SnmpValue::Oid(Oid::parse("1.3.6.1.4.1.59999.1.1.0").unwrap()),
            SnmpValue::Null,
            SnmpValue::Counter(u64::MAX),
            SnmpValue::Gauge(100),
            SnmpValue::TimeTicks(0),
            SnmpValue::NoSuchObject,
        ];
        let msg = Message {
            community: "c".into(),
            pdu_type: PduType::Get,
            pdu: Pdu {
                request_id: -7,
                error_status: ErrorStatus::GenErr,
                error_index: 2,
                varbinds: values
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (Oid::from_arcs(vec![1, 3, i as u32 + 1]), v))
                    .collect(),
            },
        };
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = encode_message(&sample_message());
        for cut in 0..bytes.len() {
            assert!(decode_message(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = encode_message(&sample_message());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xFF;
            // Must not panic; may or may not decode.
            let _ = decode_message(&mutated);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_message(&sample_message());
        bytes.push(0x00);
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn integer_minimal_encoding() {
        assert_eq!(encode_i64(0), vec![0x00]);
        assert_eq!(encode_i64(127), vec![0x7F]);
        assert_eq!(encode_i64(128), vec![0x00, 0x80]);
        assert_eq!(encode_i64(-1), vec![0xFF]);
        assert_eq!(encode_i64(-129), vec![0xFF, 0x7F]);
        assert_eq!(decode_i64(&encode_i64(-129)).unwrap(), -129);
    }

    #[test]
    fn unsigned_high_bit_gets_leading_zero() {
        let enc = encode_u64(0x80);
        assert_eq!(enc, vec![0x00, 0x80]);
        assert_eq!(decode_u64(&enc).unwrap(), 0x80);
    }

    #[test]
    fn oid_base128_arcs() {
        // Arc 59999 needs multi-byte base-128 encoding.
        let oid = Oid::parse("1.3.6.1.4.1.59999.1").unwrap();
        let body = encode_oid_body(&oid);
        assert_eq!(decode_oid_body(&body).unwrap(), oid);
    }

    #[test]
    fn long_form_lengths() {
        // A payload > 127 bytes forces long-form length encoding.
        let msg = Message {
            community: "x".repeat(200),
            pdu_type: PduType::Get,
            pdu: Pdu::request(1, &[Oid::parse("1.3").unwrap()]),
        };
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    /// A message built field by field, so a test can write what the
    /// encoder never does: a foreign version, a retired PDU tag, a retired
    /// value tag.
    fn frame(version: i64, pdu_tag: u8, value_tag: u8) -> Vec<u8> {
        let mut vb = Vec::new();
        put_tlv(
            &mut vb,
            TAG_OID,
            &encode_oid_body(&Oid::parse("1.3.6").unwrap()),
        );
        put_tlv(&mut vb, value_tag, &[]);
        let mut vbl = Vec::new();
        put_tlv(&mut vbl, TAG_SEQUENCE, &vb);
        let mut pdu = Vec::new();
        // Request id, error status, error index.
        for field in [1, 0, 0] {
            put_tlv(&mut pdu, TAG_INTEGER, &encode_i64(field));
        }
        put_tlv(&mut pdu, TAG_SEQUENCE, &vbl);
        let mut body = Vec::new();
        put_tlv(&mut body, TAG_INTEGER, &encode_i64(version));
        put_tlv(&mut body, TAG_OCTET_STRING, b"public");
        put_tlv(&mut body, pdu_tag, &pdu);
        let mut out = Vec::new();
        put_tlv(&mut out, TAG_SEQUENCE, &body);
        out
    }

    #[test]
    fn retired_pdu_tags_are_rejected() {
        // GETNEXT, SET and SNMPv2-Trap.
        for tag in [0xA1, 0xA3, 0xA7] {
            assert_eq!(
                decode_message(&frame(VERSION_2C as i64, tag, TAG_NULL)),
                Err(SnmpError::Decode("pdu tag".into())),
                "tag {tag:#x}"
            );
        }
    }

    #[test]
    fn end_of_mib_view_is_rejected() {
        let bytes = frame(VERSION_2C as i64, 0xA2, 0x82);
        assert_eq!(
            decode_message(&bytes),
            Err(SnmpError::Decode("unknown value tag 0x82".into()))
        );
    }

    #[test]
    fn a_foreign_version_is_rejected() {
        let v2c = decode_message(&frame(VERSION_2C as i64, 0xA0, TAG_NULL)).unwrap();
        assert_eq!(v2c.pdu_type, PduType::Get);
        // 257 truncates to v2c's byte, 1, if read as a `u8`.
        for version in [0, 2, 257, -1] {
            assert_eq!(
                decode_message(&frame(version, 0xA0, TAG_NULL)),
                Err(SnmpError::Decode(format!("version {version}"))),
            );
        }
    }
}
