//! The manager side: sessions, polling and sample history.
//!
//! The framework's monitoring agent is, in SNMP terms, a *manager*: it keeps
//! a session per registered worker and periodically polls the worker's CPU
//! load OID, feeding the samples to the inference engine (paper §4.4). The
//! [`Poller`] here is that loop; the inference engine plugs in as the sample
//! callback.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use crate::oid::Oid;
use crate::pdu::{ErrorStatus, Message, Pdu, PduType, SnmpError, SnmpValue, VERSION_2C};
use crate::transport::Transport;

/// Creates sessions that share a community string and request-id sequence.
#[derive(Debug)]
pub struct Manager {
    community: String,
    next_request_id: Arc<AtomicI64>,
}

impl Manager {
    /// Creates a manager using `community` for all sessions.
    pub fn new(community: impl Into<String>) -> Manager {
        Manager {
            community: community.into(),
            next_request_id: Arc::new(AtomicI64::new(1)),
        }
    }

    /// Opens a session over the given transport.
    pub fn session(&self, transport: Box<dyn Transport>) -> Session {
        Session {
            community: self.community.clone(),
            next_request_id: self.next_request_id.clone(),
            transport: Mutex::new(transport),
        }
    }
}

/// One manager↔agent conversation.
pub struct Session {
    community: String,
    next_request_id: Arc<AtomicI64>,
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
    /// The single exchange every manager request goes through: GETs,
    /// GETNEXTs and SETs.
    fn exchange(&self, pdu_type: PduType, pdu: Pdu) -> Result<Pdu, SnmpError> {
        let _span = acc_telemetry::span!("snmp.request");
        let request_id = pdu.request_id;
        // SNMPv2c has no extension header, so the trace context rides as a
        // suffix on the community string (see `community_with_context`).
        let community = match acc_telemetry::TraceContext::current_if_enabled() {
            Some(ctx) => crate::pdu::community_with_context(&self.community, &ctx),
            None => self.community.clone(),
        };
        let msg = Message {
            version: VERSION_2C,
            community,
            pdu_type,
            pdu,
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

    fn fresh_id(&self) -> i64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// GETs a single variable.
    pub fn get(&self, oid: &Oid) -> Result<SnmpValue, SnmpError> {
        let pdu = self.exchange(
            PduType::Get,
            Pdu::request(self.fresh_id(), std::slice::from_ref(oid)),
        )?;
        match pdu.varbinds.into_iter().next() {
            Some((_, SnmpValue::NoSuchObject)) | None => Err(SnmpError::NoSuchObject),
            Some((_, value)) => Ok(value),
        }
    }

    /// GETs several variables in one round trip.
    pub fn get_many(&self, oids: &[Oid]) -> Result<Vec<(Oid, SnmpValue)>, SnmpError> {
        let pdu = self.exchange(PduType::Get, Pdu::request(self.fresh_id(), oids))?;
        Ok(pdu.varbinds)
    }

    /// GETNEXT relative to `oid`.
    pub fn get_next(&self, oid: &Oid) -> Result<Option<(Oid, SnmpValue)>, SnmpError> {
        let pdu = self.exchange(
            PduType::GetNext,
            Pdu::request(self.fresh_id(), std::slice::from_ref(oid)),
        )?;
        match pdu.varbinds.into_iter().next() {
            None => Ok(None),
            Some((_, SnmpValue::EndOfMibView)) => Ok(None),
            Some(pair) => Ok(Some(pair)),
        }
    }

    /// Walks the subtree rooted at `prefix`.
    pub fn walk(&self, prefix: &Oid) -> Result<Vec<(Oid, SnmpValue)>, SnmpError> {
        let mut out = Vec::new();
        let mut cursor = prefix.clone();
        while let Some((oid, value)) = self.get_next(&cursor)? {
            if !prefix.is_prefix_of(&oid) {
                break;
            }
            cursor = oid.clone();
            out.push((oid, value));
        }
        Ok(out)
    }

    /// SETs a variable.
    pub fn set(&self, oid: &Oid, value: SnmpValue) -> Result<(), SnmpError> {
        self.exchange(
            PduType::Set,
            Pdu {
                request_id: self.fresh_id(),
                error_status: ErrorStatus::NoError,
                error_index: 0,
                varbinds: vec![(oid.clone(), value)],
            },
        )?;
        Ok(())
    }
}

/// One polled measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub at: Instant,
    /// The gauge value (e.g. CPU load percent).
    pub value: u64,
}

/// A bounded history of samples with simple statistics.
#[derive(Debug, Clone)]
pub struct PollHistory {
    samples: std::collections::VecDeque<Sample>,
    capacity: usize,
}

impl PollHistory {
    /// History retaining the last `capacity` samples.
    pub fn new(capacity: usize) -> PollHistory {
        PollHistory {
            samples: std::collections::VecDeque::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<Sample> {
        self.samples.back().copied()
    }

    /// Mean over the retained window.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.value as f64).sum::<f64>() / self.samples.len() as f64)
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A background loop polling one gauge OID at a fixed interval.
#[derive(Debug)]
pub struct Poller {
    stop: Arc<AtomicBool>,
    wake: Sender<()>,
    history: Arc<Mutex<PollHistory>>,
    thread: Option<JoinHandle<()>>,
}

impl Poller {
    /// Spawns the polling loop. Each successful sample is recorded in the
    /// history and passed to `on_sample`; transport errors are counted as
    /// missed polls and the loop keeps going (a flaky worker is not fatal).
    pub fn spawn(
        session: Session,
        oid: Oid,
        interval: Duration,
        history_capacity: usize,
        on_sample: impl Fn(Sample) + Send + 'static,
    ) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let history = Arc::new(Mutex::new(PollHistory::new(history_capacity)));
        let (wake_tx, wake_rx) = bounded::<()>(1);
        let stop2 = stop.clone();
        let history2 = history.clone();
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                // A failed GET is a missed poll: the next tick tries again.
                if let Some(v) = session.get(&oid).ok().and_then(|value| value.as_u64()) {
                    let sample = Sample {
                        at: Instant::now(),
                        value: v,
                    };
                    history2.lock().push(sample);
                    on_sample(sample);
                }
                // Sleep until the next tick, but wake immediately on stop.
                let _ = wake_rx.recv_timeout(interval);
            }
        });
        Poller {
            stop,
            wake: wake_tx,
            history,
            thread: Some(thread),
        }
    }

    /// The recorded sample history.
    pub fn history(&self) -> PollHistory {
        self.history.lock().clone()
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.wake.try_send(());
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{host_resources_mib, Agent};
    use crate::oid::oids;
    use crate::transport::InProcTransport;
    use std::sync::atomic::AtomicU64;

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
        Manager::new("public").session(Box::new(InProcTransport::new(agent)))
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

    #[test]
    fn walk_subtree() {
        let s = session_with_load(Arc::new(AtomicU64::new(0)));
        // Walk the whole standard MIB-2 subtree.
        let walked = s.walk(&Oid::parse("1.3.6.1.2.1").unwrap()).unwrap();
        assert!(walked.len() >= 4);
        // Walk a narrow subtree: only hrProcessorLoad.
        let narrow = s.walk(&oids::hr_processor_load()).unwrap();
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow[0].0, oids::hr_processor_load_1());
    }

    #[test]
    fn poller_records_history_and_calls_back() {
        let load = Arc::new(AtomicU64::new(10));
        let s = session_with_load(load.clone());
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let poller = Poller::spawn(
            s,
            oids::hr_processor_load_1(),
            Duration::from_millis(5),
            16,
            move |sample| {
                seen2.store(sample.value, Ordering::Relaxed);
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        load.store(90, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(30));
        let history = poller.history();
        poller.stop();
        assert!(history.len() >= 2);
        assert_eq!(seen.load(Ordering::Relaxed), 90);
        assert_eq!(history.latest().unwrap().value, 90);
        let mean = history.mean().unwrap();
        assert!(mean > 10.0 && mean < 90.0, "mean {mean}");
    }

    #[test]
    fn history_capacity_bounds() {
        let mut h = PollHistory::new(3);
        let t = Instant::now();
        for i in 0..10 {
            h.push(Sample { at: t, value: i });
        }
        assert_eq!(h.len(), 3);
        let values: Vec<u64> = h.samples().map(|s| s.value).collect();
        assert_eq!(values, vec![7, 8, 9]);
    }

    #[test]
    fn history_empty_stats() {
        let h = PollHistory::new(4);
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.latest(), None);
    }
}
