//! Protocol data units and typed values.

use std::fmt;

use crate::oid::Oid;

/// The protocol version byte we speak (community-based v2c).
pub const VERSION_2C: u8 = 1;

/// A typed SNMP value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnmpValue {
    /// Signed integer (INTEGER).
    Int(i64),
    /// Octet string.
    Str(Vec<u8>),
    /// Object identifier value.
    Oid(Oid),
    /// Null (used in request varbinds).
    Null,
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous gauge (e.g. CPU load percent).
    Gauge(u64),
    /// Hundredths of a second since agent start.
    TimeTicks(u64),
    /// GET addressed a variable the agent does not expose.
    NoSuchObject,
}

impl SnmpValue {
    /// Convenience: the value as a `u64`, for gauges/counters/ints.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            SnmpValue::Int(v) if *v >= 0 => Some(*v as u64),
            SnmpValue::Counter(v) | SnmpValue::Gauge(v) | SnmpValue::TimeTicks(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: the value as UTF-8 text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SnmpValue::Str(bytes) => std::str::from_utf8(bytes).ok(),
            _ => None,
        }
    }
}

impl fmt::Display for SnmpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnmpValue::Int(v) => write!(f, "{v}"),
            SnmpValue::Str(bytes) => match std::str::from_utf8(bytes) {
                Ok(s) => write!(f, "{s:?}"),
                Err(_) => write!(f, "<{} bytes>", bytes.len()),
            },
            SnmpValue::Oid(oid) => write!(f, "{oid}"),
            SnmpValue::Null => write!(f, "null"),
            SnmpValue::Counter(v) => write!(f, "Counter({v})"),
            SnmpValue::Gauge(v) => write!(f, "Gauge({v})"),
            SnmpValue::TimeTicks(v) => write!(f, "TimeTicks({v})"),
            SnmpValue::NoSuchObject => write!(f, "noSuchObject"),
        }
    }
}

/// PDU kind: the monitor GETs, the agent answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PduType {
    /// GET request.
    Get,
    /// Response to a GET.
    Response,
}

impl PduType {
    /// The BER application tag for this PDU kind.
    pub fn tag(self) -> u8 {
        match self {
            PduType::Get => 0xA0,
            PduType::Response => 0xA2,
        }
    }

    /// Inverse of [`PduType::tag`]; any other PDU tag (GETNEXT, SET, a
    /// trap) is not spoken here.
    pub fn from_tag(tag: u8) -> Option<PduType> {
        match tag {
            0xA0 => Some(PduType::Get),
            0xA2 => Some(PduType::Response),
            _ => None,
        }
    }
}

/// Error status carried in response PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorStatus {
    /// Success.
    NoError,
    /// Response would not fit.
    TooBig,
    /// Requested variable does not exist.
    NoSuchName,
    /// SET value had the wrong type/range.
    BadValue,
    /// Variable is not writable.
    ReadOnly,
    /// Any other failure.
    GenErr,
}

impl ErrorStatus {
    /// Numeric wire value.
    pub fn code(self) -> i64 {
        match self {
            ErrorStatus::NoError => 0,
            ErrorStatus::TooBig => 1,
            ErrorStatus::NoSuchName => 2,
            ErrorStatus::BadValue => 3,
            ErrorStatus::ReadOnly => 4,
            ErrorStatus::GenErr => 5,
        }
    }

    /// Inverse of [`ErrorStatus::code`].
    pub fn from_code(code: i64) -> Option<ErrorStatus> {
        match code {
            0 => Some(ErrorStatus::NoError),
            1 => Some(ErrorStatus::TooBig),
            2 => Some(ErrorStatus::NoSuchName),
            3 => Some(ErrorStatus::BadValue),
            4 => Some(ErrorStatus::ReadOnly),
            5 => Some(ErrorStatus::GenErr),
            _ => None,
        }
    }
}

/// A protocol data unit: request id, error info and variable bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct Pdu {
    /// Correlates responses with requests.
    pub request_id: i64,
    /// Error status (responses).
    pub error_status: ErrorStatus,
    /// 1-based index of the varbind in error, 0 if none.
    pub error_index: i64,
    /// The variable bindings.
    pub varbinds: Vec<(Oid, SnmpValue)>,
}

impl Pdu {
    /// A request PDU for the given OIDs (Null-valued varbinds).
    pub fn request(request_id: i64, oids: &[Oid]) -> Pdu {
        Pdu {
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: oids.iter().map(|o| (o.clone(), SnmpValue::Null)).collect(),
        }
    }
}

/// A full SNMP message: community string, PDU type and PDU. The version
/// on the wire is always [`VERSION_2C`].
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Community string — the paper-era access-control mechanism.
    pub community: String,
    /// What kind of PDU this is.
    pub pdu_type: PduType,
    /// The PDU body.
    pub pdu: Pdu,
}

/// Errors surfaced by the SNMP stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnmpError {
    /// Malformed bytes on the wire.
    Decode(String),
    /// The transport failed (peer gone, connection refused).
    Transport(String),
    /// The agent did not answer within the transport's timeout.
    Timeout,
    /// The agent rejected the community string.
    BadCommunity,
    /// The agent answered with an error status.
    Agent(ErrorStatus),
    /// A response arrived with the wrong request id.
    RequestIdMismatch,
    /// The requested variable does not exist.
    NoSuchObject,
}

impl fmt::Display for SnmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnmpError::Decode(msg) => write!(f, "decode error: {msg}"),
            SnmpError::Transport(msg) => write!(f, "transport error: {msg}"),
            SnmpError::Timeout => write!(f, "agent did not answer in time"),
            SnmpError::BadCommunity => write!(f, "bad community string"),
            SnmpError::Agent(status) => write!(f, "agent error: {status:?}"),
            SnmpError::RequestIdMismatch => write!(f, "response id does not match request"),
            SnmpError::NoSuchObject => write!(f, "no such object"),
        }
    }
}

impl std::error::Error for SnmpError {}

/// Separator between the community string proper and an appended trace
/// context in [`community_with_context`].
pub const CONTEXT_SEP: &str = "@@";

/// Appends a distributed trace context to a community string:
/// `"<community>@@<trace_hex>:<span_hex>"`. SNMPv2c has no other
/// extensible per-message field, and agents that don't understand the
/// suffix reject the whole string — exactly the
/// fail-closed behaviour a community check should have.
pub fn community_with_context(community: &str, ctx: &acc_telemetry::TraceContext) -> String {
    format!("{community}{CONTEXT_SEP}{}", ctx.encode())
}

/// Splits a possibly context-carrying community string back into the
/// community proper and the trace context, if a well-formed one is
/// appended. A suffix that does not parse as a context is treated as
/// part of the community (so a community that legitimately contains
/// `@@` still compares correctly when no context was added).
pub fn split_community(full: &str) -> (&str, Option<acc_telemetry::TraceContext>) {
    if let Some((base, suffix)) = full.rsplit_once(CONTEXT_SEP) {
        if let Some(ctx) = acc_telemetry::TraceContext::parse(suffix) {
            return (base, Some(ctx));
        }
    }
    (full, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdu_type_tags_roundtrip() {
        for ty in [PduType::Get, PduType::Response] {
            assert_eq!(PduType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(PduType::from_tag(0x30), None);
    }

    #[test]
    fn error_status_codes_roundtrip() {
        for e in [
            ErrorStatus::NoError,
            ErrorStatus::TooBig,
            ErrorStatus::NoSuchName,
            ErrorStatus::BadValue,
            ErrorStatus::ReadOnly,
            ErrorStatus::GenErr,
        ] {
            assert_eq!(ErrorStatus::from_code(e.code()), Some(e));
        }
        assert_eq!(ErrorStatus::from_code(99), None);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(SnmpValue::Gauge(42).as_u64(), Some(42));
        assert_eq!(SnmpValue::Int(-1).as_u64(), None);
        assert_eq!(SnmpValue::Str(b"hi".to_vec()).as_text(), Some("hi"));
        assert_eq!(SnmpValue::Null.as_text(), None);
    }

    #[test]
    fn request_builder_nulls_varbinds() {
        let oid = Oid::parse("1.3").unwrap();
        let pdu = Pdu::request(7, std::slice::from_ref(&oid));
        assert_eq!(pdu.request_id, 7);
        assert_eq!(pdu.varbinds, vec![(oid, SnmpValue::Null)]);
    }

    #[test]
    fn community_context_roundtrips() {
        let ctx = acc_telemetry::TraceContext {
            trace_id: 0xabc123,
            span_id: 0x77,
        };
        let full = community_with_context("public", &ctx);
        assert_eq!(full, "public@@abc123:77");
        assert_eq!(split_community(&full), ("public", Some(ctx)));
        // No context appended: the whole string is the community.
        assert_eq!(split_community("public"), ("public", None));
        // A community that happens to contain the separator but no valid
        // context stays intact.
        assert_eq!(split_community("we@@ird"), ("we@@ird", None));
        // And one that contains the separator AND carries a context
        // splits at the last separator only.
        let tricky = community_with_context("we@@ird", &ctx);
        assert_eq!(split_community(&tricky), ("we@@ird", Some(ctx)));
    }
}
