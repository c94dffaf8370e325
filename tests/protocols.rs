//! Cross-crate protocol integration: SNMP over real TCP, the rule-base
//! protocol over real TCP, discovery of a space grid from shard 0, and the
//! remote-configuration engine — the deployment-shaped paths.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::{Node, NodeSpec};
use adaptive_spaces::framework::rulebase::{self, client_register, RuleBaseServer};
use adaptive_spaces::framework::{
    ClusterBuilder, FrameworkConfig, RuleMessage, Signal, WorkerState,
};
use adaptive_spaces::snmp::{
    host_resources_mib, oids, transport::TcpAgentServer, transport::TcpTransport, Agent, Mib,
    Session, SnmpValue,
};
use adaptive_spaces::space::{Space, SpaceServer, Template, Tuple, TupleStore};
use adaptive_spaces::spacegrid::PartitionedSpace;

#[test]
fn snmp_over_tcp_polls_live_node_state() {
    // A node whose load we change mid-test, exported over a real socket.
    let node = Node::new(NodeSpec::new("tcp-node", 800, 256));
    let n1 = node.clone();
    let n2 = node.clone();
    let n3 = node.clone();
    let mut mib: Mib = host_resources_mib(
        "tcp-node".into(),
        256 * 1024,
        move || n1.cpu_load(),
        move || n2.free_memory_kb(),
        move || n3.uptime_ticks(),
    );
    let load = node.load();
    mib.register_gauge(oids::acc_framework_load(), move || {
        load.framework_effective()
    });
    let server = TcpAgentServer::spawn(Arc::new(Agent::new("public", mib))).unwrap();
    let session = Session::new(
        "public",
        Box::new(TcpTransport::connect(server.addr()).unwrap()),
    );

    assert_eq!(
        session.get(&oids::hr_processor_load_1()).unwrap(),
        SnmpValue::Gauge(0)
    );
    node.load().set_background(73);
    // Every host-resources variable in one GET over the wire.
    let wanted = [
        oids::sys_descr(),
        oids::sys_uptime(),
        oids::hr_memory_size(),
        oids::hr_processor_load_1(),
        oids::acc_free_memory(),
        oids::hr_system_num_users(),
    ];
    let got = session.get_many(&wanted).unwrap();
    let oids_back: Vec<_> = got.iter().map(|(oid, _)| oid.clone()).collect();
    assert_eq!(oids_back, wanted);
    assert_eq!(got[0].1, SnmpValue::Str(b"tcp-node".to_vec()));
    assert!(matches!(got[1].1, SnmpValue::TimeTicks(_)));
    assert_eq!(got[2].1, SnmpValue::Int(256 * 1024));
    assert_eq!(got[3].1, SnmpValue::Gauge(73));
    assert_eq!(got[4].1, SnmpValue::Gauge(node.free_memory_kb()));
    assert_eq!(got[5].1, SnmpValue::Gauge(0));
}

#[test]
fn rulebase_over_tcp_full_protocol() {
    let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let acked2 = acked.clone();
    let server = RuleBaseServer::new(Arc::new(move |id, msg| {
        if let RuleMessage::Ack { signal, new_state } = msg {
            acked2.lock().push((id, signal, new_state));
        }
    }));
    let listener = rulebase::tcp::RuleBaseTcpListener::spawn(server.clone()).unwrap();

    // Three workers connect concurrently.
    let mut clients = Vec::new();
    for i in 0..3 {
        let duplex = rulebase::tcp::connect(listener.addr()).unwrap();
        let id = client_register(&duplex, &format!("w{i}"), Duration::from_secs(5)).unwrap();
        clients.push((id, duplex));
    }
    let begun = Instant::now();
    while server.workers().len() < 3 && begun.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.workers().len(), 3);

    // Signal each; each acks.
    for (id, duplex) in &clients {
        assert!(server.send_signal(*id, Signal::Start));
        match duplex.recv_timeout(Duration::from_secs(2)) {
            Some(RuleMessage::Signal { signal }) => assert_eq!(signal, Signal::Start),
            other => panic!("expected signal, got {other:?}"),
        }
        duplex.send(RuleMessage::Ack {
            signal: Signal::Start,
            new_state: WorkerState::Running,
        });
    }
    let begun = Instant::now();
    while acked.lock().len() < 3 && begun.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(acked.lock().len(), 3);

    // One worker leaves; the registry shrinks.
    clients[0].1.send(RuleMessage::Bye);
    let begun = Instant::now();
    while server.workers().len() > 2 && begun.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.workers().len(), 2);
}

#[test]
fn a_grid_cluster_is_discovered_from_shard_0() {
    let servers: Vec<SpaceServer> = (0..3)
        .map(|i| SpaceServer::spawn(Space::new(format!("lookup-{i}")), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let cluster = ClusterBuilder::new(FrameworkConfig::default())
        .shards(addrs.clone())
        .build();
    cluster
        .store()
        .write(Tuple::build("greeting").field("text", "hello").done())
        .unwrap();

    // A client holding shard 0's address alone finds every shard, in
    // order, and reads what the cluster wrote.
    let grid = PartitionedSpace::discover(servers[0].addr()).unwrap();
    let found: Vec<String> = grid.addrs().iter().map(|a| a.to_string()).collect();
    assert_eq!(found, addrs);
    let got = grid
        .read_if_exists(&Template::of_type("greeting"))
        .unwrap()
        .unwrap();
    assert_eq!(got.get_str("text"), Some("hello"));
    cluster.shutdown();
}

#[test]
fn loader_detects_tampered_bundles_end_to_end() {
    use adaptive_spaces::framework::{BundleServer, CodeBundle, ExecutorRegistry};
    use adaptive_spaces::framework::{ExecError, TaskEntry};

    struct Nop;
    impl adaptive_spaces::framework::TaskExecutor for Nop {
        fn execute(&self, _: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            Ok(Vec::new())
        }
    }

    let server = BundleServer::new(Duration::from_millis(1), Duration::ZERO);
    server.publish(CodeBundle::synthetic("app", 3, 16));
    let registry = ExecutorRegistry::new();
    registry.register("app", Arc::new(Nop));

    // Normal fetch+link works and reports a transfer cost.
    let (bundle, cost) = server.fetch("app").unwrap();
    assert!(cost >= Duration::from_millis(1));
    assert!(registry.link(&bundle).is_ok());

    // A corrupted transfer is rejected at link time.
    let mut tampered = bundle.clone();
    tampered.bytes[100] ^= 0x01;
    assert!(registry.link(&tampered).is_err());
}
