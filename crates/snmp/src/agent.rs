//! The SNMP worker-agent: services requests against a MIB.
//!
//! In the paper, a worker-agent component runs on every monitored node and
//! answers the monitoring agent's queries for system parameters. [`Agent`]
//! is that component: hand it a [`Mib`] and raw request bytes and it
//! produces raw response bytes. Transports (in-process or TCP) move the
//! bytes.

use crate::codec::{decode_message, encode_message};
use crate::mib::Mib;
use crate::oid::oids;
use crate::pdu::{ErrorStatus, Message, Pdu, PduType, SnmpError, SnmpValue};

/// An SNMP agent bound to one node's MIB.
#[derive(Debug)]
pub struct Agent {
    community: String,
    mib: Mib,
}

impl Agent {
    /// Creates an agent guarding `mib` with the given community string.
    pub fn new(community: impl Into<String>, mib: Mib) -> Agent {
        Agent {
            community: community.into(),
            mib,
        }
    }

    /// Handles one raw request, producing one raw response.
    pub fn handle_bytes(&self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        let msg = decode_message(request)?;
        let response = self.handle(msg)?;
        Ok(encode_message(&response))
    }

    /// Handles one decoded request message: a GET is answered, anything
    /// else refused.
    pub fn handle(&self, msg: Message) -> Result<Message, SnmpError> {
        let (base, ctx) = crate::pdu::split_community(&msg.community);
        if base != self.community {
            // Real agents silently drop bad-community packets; we surface an
            // error so callers can diagnose misconfiguration.
            return Err(SnmpError::BadCommunity);
        }
        // Adopt the manager's trace context (if it sent one) so the agent's
        // spans join the manager's distributed trace.
        let _ctx = ctx.map(acc_telemetry::TraceContext::attach);
        let _span = acc_telemetry::span!("snmp.agent.handle");
        if msg.pdu_type != PduType::Get {
            return Err(SnmpError::Decode("agent received a non-request PDU".into()));
        }
        Ok(Message {
            community: msg.community,
            pdu_type: PduType::Response,
            pdu: self.serve_get(msg.pdu),
        })
    }

    fn serve_get(&self, request: Pdu) -> Pdu {
        let varbinds = request
            .varbinds
            .into_iter()
            .map(|(oid, _)| {
                let value = self.mib.get(&oid).unwrap_or(SnmpValue::NoSuchObject);
                (oid, value)
            })
            .collect();
        Pdu {
            request_id: request.request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds,
        }
    }
}

/// Builds the standard host-resources MIB the framework polls: CPU load,
/// memory size, free memory, user count, plus sysDescr/sysUpTime. The
/// closures sample live node state.
pub fn host_resources_mib(
    descr: String,
    memory_kb: u64,
    cpu_load: impl Fn() -> u64 + Send + Sync + 'static,
    free_memory_kb: impl Fn() -> u64 + Send + Sync + 'static,
    uptime_ticks: impl Fn() -> u64 + Send + Sync + 'static,
) -> Mib {
    let mut mib = Mib::new();
    mib.register_const(oids::sys_descr(), SnmpValue::Str(descr.into_bytes()));
    mib.register(oids::sys_uptime(), move || {
        SnmpValue::TimeTicks(uptime_ticks())
    });
    mib.register_const(oids::hr_memory_size(), SnmpValue::Int(memory_kb as i64));
    mib.register_gauge(oids::hr_processor_load_1(), cpu_load);
    mib.register_gauge(oids::acc_free_memory(), free_memory_kb);
    mib.register_const(oids::hr_system_num_users(), SnmpValue::Gauge(0));
    mib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;

    fn agent() -> Agent {
        let mib = host_resources_mib("test-node".into(), 65536, || 42, || 1024, || 100);
        Agent::new("public", mib)
    }

    fn get(agent: &Agent, oid: &Oid) -> SnmpValue {
        let msg = Message {
            community: "public".into(),
            pdu_type: PduType::Get,
            pdu: Pdu::request(1, std::slice::from_ref(oid)),
        };
        let resp = agent.handle(msg).unwrap();
        resp.pdu.varbinds[0].1.clone()
    }

    #[test]
    fn get_known_variables() {
        let a = agent();
        assert_eq!(get(&a, &oids::hr_processor_load_1()), SnmpValue::Gauge(42));
        assert_eq!(get(&a, &oids::hr_memory_size()), SnmpValue::Int(65536));
        assert_eq!(get(&a, &oids::acc_free_memory()), SnmpValue::Gauge(1024));
        assert_eq!(
            get(&a, &oids::sys_descr()),
            SnmpValue::Str(b"test-node".to_vec())
        );
    }

    #[test]
    fn get_unknown_yields_no_such_object() {
        let a = agent();
        assert_eq!(
            get(&a, &Oid::parse("1.2.3.4").unwrap()),
            SnmpValue::NoSuchObject
        );
    }

    #[test]
    fn bad_community_rejected() {
        let a = agent();
        let msg = Message {
            community: "private".into(),
            pdu_type: PduType::Get,
            pdu: Pdu::request(1, &[oids::sys_descr()]),
        };
        assert_eq!(a.handle(msg), Err(SnmpError::BadCommunity));
    }

    #[test]
    fn context_suffixed_community_accepted_and_echoed() {
        let a = agent();
        let ctx = acc_telemetry::TraceContext {
            trace_id: 0xdead,
            span_id: 0xbeef,
        };
        let community = crate::pdu::community_with_context("public", &ctx);
        let msg = Message {
            community: community.clone(),
            pdu_type: PduType::Get,
            pdu: Pdu::request(9, &[oids::hr_memory_size()]),
        };
        let resp = a.handle(msg).unwrap();
        // The response echoes the community exactly as received, context
        // suffix included, so the manager's own check also passes.
        assert_eq!(resp.community, community);
        assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Int(65536));
        // A context suffix does not let a wrong community through.
        let bad = Message {
            community: crate::pdu::community_with_context("private", &ctx),
            pdu_type: PduType::Get,
            pdu: Pdu::request(9, &[oids::hr_memory_size()]),
        };
        assert_eq!(a.handle(bad), Err(SnmpError::BadCommunity));
    }

    #[test]
    fn non_request_pdu_rejected() {
        let a = agent();
        let msg = Message {
            community: "public".into(),
            pdu_type: PduType::Response,
            pdu: Pdu::request(1, &[oids::sys_descr()]),
        };
        assert!(a.handle(msg).is_err());
    }

    #[test]
    fn handle_bytes_roundtrip() {
        let a = agent();
        let msg = Message {
            community: "public".into(),
            pdu_type: PduType::Get,
            pdu: Pdu::request(3, &[oids::hr_processor_load_1()]),
        };
        let resp_bytes = a.handle_bytes(&crate::codec::encode_message(&msg)).unwrap();
        let resp = crate::codec::decode_message(&resp_bytes).unwrap();
        assert_eq!(resp.pdu.request_id, 3);
        assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Gauge(42));
    }

    #[test]
    fn malformed_bytes_error() {
        let a = agent();
        assert!(a.handle_bytes(&[0xde, 0xad]).is_err());
    }
}
