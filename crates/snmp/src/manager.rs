//! The manager side: one session per polled agent.
//!
//! The framework's monitoring agent is, in SNMP terms, a *manager*: its
//! watch thread holds a [`Session`] per registered worker and GETs the
//! worker's CPU load OIDs every poll interval, feeding the samples to the
//! inference engine (paper §4.4).

use std::sync::atomic::{AtomicI64, Ordering};

use parking_lot::Mutex;

use crate::oid::Oid;
use crate::pdu::{ErrorStatus, Message, Pdu, PduType, SnmpError, SnmpValue};
use crate::transport::Transport;

/// One manager↔agent conversation: a community string, a transport and the
/// request ids this session's responses must echo.
pub struct Session {
    community: String,
    next_request_id: AtomicI64,
    transport: Mutex<Box<dyn Transport>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("community", &self.community)
            .finish()
    }
}

impl Session {
    /// Opens a session that speaks `community` over `transport`.
    pub fn new(community: impl Into<String>, transport: Box<dyn Transport>) -> Session {
        Session {
            community: community.into(),
            next_request_id: AtomicI64::new(1),
            transport: Mutex::new(transport),
        }
    }

    /// The single exchange every request goes through: one GET of `oids`.
    fn exchange(&self, oids: &[Oid]) -> Result<Pdu, SnmpError> {
        let _span = acc_telemetry::span!("snmp.request");
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        // SNMPv2c has no extension header, so the trace context rides as a
        // suffix on the community string (see `community_with_context`).
        let community = match acc_telemetry::TraceContext::current_if_enabled() {
            Some(ctx) => crate::pdu::community_with_context(&self.community, &ctx),
            None => self.community.clone(),
        };
        let msg = Message {
            community,
            pdu_type: PduType::Get,
            pdu: Pdu::request(request_id, oids),
        };
        let bytes = crate::codec::encode_message(&msg);
        let resp_bytes = self.transport.lock().request(&bytes)?;
        let resp = crate::codec::decode_message(&resp_bytes)?;
        if resp.pdu.request_id != request_id {
            return Err(SnmpError::RequestIdMismatch);
        }
        if resp.pdu.error_status != ErrorStatus::NoError {
            return Err(SnmpError::Agent(resp.pdu.error_status));
        }
        Ok(resp.pdu)
    }

    /// GETs a single variable.
    pub fn get(&self, oid: &Oid) -> Result<SnmpValue, SnmpError> {
        let pdu = self.exchange(std::slice::from_ref(oid))?;
        match pdu.varbinds.into_iter().next() {
            Some((_, SnmpValue::NoSuchObject)) | None => Err(SnmpError::NoSuchObject),
            Some((_, value)) => Ok(value),
        }
    }

    /// GETs several variables in one round trip.
    pub fn get_many(&self, oids: &[Oid]) -> Result<Vec<(Oid, SnmpValue)>, SnmpError> {
        Ok(self.exchange(oids)?.varbinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{host_resources_mib, Agent};
    use crate::oid::oids;
    use crate::transport::InProcTransport;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn session_with_load(load: Arc<AtomicU64>) -> Session {
        let load2 = load.clone();
        let agent = Arc::new(Agent::new(
            "public",
            host_resources_mib(
                "n".into(),
                2048,
                move || load2.load(Ordering::Relaxed),
                || 512,
                || 0,
            ),
        ));
        Session::new("public", Box::new(InProcTransport::new(agent)))
    }

    #[test]
    fn get_and_get_many() {
        let s = session_with_load(Arc::new(AtomicU64::new(55)));
        assert_eq!(
            s.get(&oids::hr_processor_load_1()).unwrap(),
            SnmpValue::Gauge(55)
        );
        let many = s
            .get_many(&[oids::hr_processor_load_1(), oids::hr_memory_size()])
            .unwrap();
        assert_eq!(many.len(), 2);
        assert_eq!(many[1].1, SnmpValue::Int(2048));
    }

    #[test]
    fn get_missing_is_error() {
        let s = session_with_load(Arc::new(AtomicU64::new(0)));
        assert_eq!(
            s.get(&Oid::parse("9.9.9").unwrap()),
            Err(SnmpError::NoSuchObject)
        );
    }
}
