//! Request/response transports carrying SNMP messages.
//!
//! Two implementations: [`InProcTransport`] calls an [`Agent`] directly (the
//! simulator and most tests use this), and [`TcpTransport`] speaks
//! length-prefixed frames to a [`TcpAgentServer`] over a real loopback
//! socket — exercising the same code path a deployed manager/agent pair
//! would.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::agent::Agent;
use crate::pdu::SnmpError;

/// Moves one request's bytes to an agent and returns the response bytes.
pub trait Transport: Send {
    /// Performs one request/response exchange.
    fn request(&mut self, bytes: &[u8]) -> Result<Vec<u8>, SnmpError>;
}

/// Calls the agent in-process — zero-copy "loopback".
#[derive(Debug, Clone)]
pub struct InProcTransport {
    agent: Arc<Agent>,
}

impl InProcTransport {
    /// Wraps an agent.
    pub fn new(agent: Arc<Agent>) -> InProcTransport {
        InProcTransport { agent }
    }
}

impl Transport for InProcTransport {
    fn request(&mut self, bytes: &[u8]) -> Result<Vec<u8>, SnmpError> {
        self.agent.handle_bytes(bytes)
    }
}

fn write_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let len = (bytes.len() as u32).to_le_bytes();
    stream.write_all(&len)?;
    stream.write_all(bytes)?;
    stream.flush()
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > 1 << 20 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Serves one agent over TCP loopback; one thread per connection.
#[derive(Debug)]
pub struct TcpAgentServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpAgentServer {
    /// Binds to an ephemeral loopback port and starts accepting.
    pub fn spawn(agent: Arc<Agent>) -> std::io::Result<TcpAgentServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let agent = agent.clone();
                std::thread::spawn(move || {
                    // Serve frames until the peer hangs up or sends garbage.
                    while let Ok(request) = read_frame(&mut stream) {
                        let Ok(response) = agent.handle_bytes(&request) else {
                            break;
                        };
                        if write_frame(&mut stream, &response).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        Ok(TcpAgentServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TcpAgentServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// A persistent TCP connection to a [`TcpAgentServer`].
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects with a 2-second I/O timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        Self::connect_with_timeout(addr, Duration::from_secs(2))
    }

    /// Connects with an explicit I/O timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

/// A socket timeout is [`SnmpError::Timeout`]; any other I/O failure is
/// [`SnmpError::Transport`].
fn io_error(e: std::io::Error) -> SnmpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => SnmpError::Timeout,
        _ => SnmpError::Transport(e.to_string()),
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, bytes: &[u8]) -> Result<Vec<u8>, SnmpError> {
        write_frame(&mut self.stream, bytes).map_err(io_error)?;
        read_frame(&mut self.stream).map_err(io_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::host_resources_mib;
    use crate::codec::{decode_message, encode_message};
    use crate::oid::oids;
    use crate::pdu::{Message, Pdu, PduType, SnmpValue};

    fn agent() -> Arc<Agent> {
        Arc::new(Agent::new(
            "public",
            host_resources_mib("n".into(), 1024, || 33, || 10, || 0),
        ))
    }

    fn load_request() -> Vec<u8> {
        encode_message(&Message {
            community: "public".into(),
            pdu_type: PduType::Get,
            pdu: Pdu::request(11, &[oids::hr_processor_load_1()]),
        })
    }

    #[test]
    fn inproc_roundtrip() {
        let mut t = InProcTransport::new(agent());
        let resp = decode_message(&t.request(&load_request()).unwrap()).unwrap();
        assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Gauge(33));
    }

    #[test]
    fn tcp_roundtrip() {
        let server = TcpAgentServer::spawn(agent()).unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        let resp = decode_message(&t.request(&load_request()).unwrap()).unwrap();
        assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Gauge(33));
        assert_eq!(resp.pdu.request_id, 11);
    }

    #[test]
    fn tcp_multiple_requests_one_connection() {
        let server = TcpAgentServer::spawn(agent()).unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        for _ in 0..5 {
            let resp = decode_message(&t.request(&load_request()).unwrap()).unwrap();
            assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Gauge(33));
        }
    }

    #[test]
    fn tcp_concurrent_clients() {
        let server = TcpAgentServer::spawn(agent()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(addr).unwrap();
                    for _ in 0..10 {
                        let resp = decode_message(&t.request(&load_request()).unwrap()).unwrap();
                        assert_eq!(resp.pdu.varbinds[0].1, SnmpValue::Gauge(33));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_silent_agent_is_a_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut t = TcpTransport::connect_with_timeout(
            listener.local_addr().unwrap(),
            Duration::from_millis(20),
        )
        .unwrap();
        // Accepted (the connect succeeded) but never answered.
        let _peer = listener.accept().unwrap();
        assert_eq!(t.request(&load_request()), Err(SnmpError::Timeout));
    }

    #[test]
    fn server_shutdown_breaks_clients() {
        let server = TcpAgentServer::spawn(agent()).unwrap();
        let addr = server.addr();
        drop(server);
        // New connections either fail outright or fail on first request.
        match TcpTransport::connect(addr) {
            Err(_) => {}
            Ok(mut t) => assert!(t.request(&load_request()).is_err()),
        }
    }
}
