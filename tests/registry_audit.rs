//! The registry audit: every series registered outside tests has a reader
//! other than the `/metrics` dump — the benchmark's layer table
//! (`benchmark/src/layers.rs`), a `/cluster.json` or `/profile.json`
//! section, or a `/healthz` check — or a recorded reason to stay. A series
//! nobody reads is deleted with its recording sites, so registering one
//! without naming its reader here fails. `sim.*` is exempt until the
//! simulator is settled.
//!
//! Registry names are `&'static str`: a registration names its series as
//! a literal (`.counter("space.write.count")`) or through
//! `Box::leak(format!(..))`, and the scan finds both.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use adaptive_spaces::framework::{ClusterBuilder, FrameworkConfig};
use adaptive_spaces::space::{remote::SpaceServer, Space};
use adaptive_spaces::telemetry::registry;

/// Who reads a series, or why it stays without a reader.
enum Reader {
    /// The benchmark's per-layer table, by name.
    Layers,
    /// This route shows its value.
    Route(&'static str),
    /// Kept without a reader, for this reason.
    Kept(&'static str),
}

use Reader::{Kept, Layers, Route};

const AUDIT: &[(&str, Reader)] = &[
    ("grid.rerouted_writes", Route("/cluster.json")),
    ("grid.scatter.fanout", Layers),
    ("grid.shard{i}.op_us", Route("/profile.json")),
    ("monitor.failed_polls.{kind}", Route("/cluster.json")),
    ("monitor.samples", Layers),
    (
        "process.threads",
        Kept("thread counts are cited per change"),
    ),
    (
        "process.uptime_seconds",
        Kept("scrapers detect restarts by it"),
    ),
    ("remote.buffer_reuse_misses", Layers),
    ("remote.frame_bytes", Layers),
    ("remote.reconnects", Layers),
    ("server.tuples_restored", Route("/healthz")),
    ("space.blocked_waits", Layers),
    ("space.bytes_written", Layers),
    ("space.index.hits", Layers),
    ("space.index.misses", Layers),
    ("space.read.count", Layers),
    ("space.shard_contention", Layers),
    ("space.take.count", Layers),
    ("space.write.count", Layers),
    ("telemetry.flight.dropped_events", Layers),
    ("wal.append.bytes", Layers),
    ("wal.append.count", Layers),
    ("wal.fsync.count", Layers),
    ("worker.transport_strikes", Route("/healthz")),
];

/// Library sources under `dir`, without test-only files.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("tests.rs") {
            out.push(path);
        }
    }
}

/// Every series name registered in `src/` and `crates/*/src/`, outside
/// test modules.
fn registered(repo: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    sources(&repo.join("src"), &mut files);
    for krate in std::fs::read_dir(repo.join("crates")).unwrap() {
        sources(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let code = text.split("#[cfg(test)]\nmod tests {").next().unwrap();
        for call in [".counter(", ".gauge(", ".histogram(", "Box::leak(format!("] {
            for (at, _) in code.match_indices(call) {
                if let Some(literal) = code[at + call.len()..].trim_start().strip_prefix('"') {
                    names.insert(literal[..literal.find('"').unwrap()].to_owned());
                }
            }
        }
    }
    names
}

#[test]
fn every_registered_series_has_a_reader() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let registered = registered(repo);
    assert!(registered.contains("space.write.count"), "{registered:?}");
    for name in &registered {
        assert!(
            name.starts_with("sim.") || AUDIT.iter().any(|(audited, _)| audited == name),
            "series `{name}` has no reader: show it in a route section or the \
             benchmark's layer table and name that reader here, or delete it"
        );
    }
    let layers = std::fs::read_to_string(repo.join("benchmark/src/layers.rs")).unwrap();
    for (name, reader) in AUDIT {
        assert!(
            registered.contains(*name),
            "`{name}` is no longer registered"
        );
        match reader {
            Layers => assert!(
                layers.contains(&format!("\"{name}\"")),
                "`{name}` is not in the layer table"
            ),
            Kept(reason) => assert!(!reason.is_empty(), "`{name}` is kept without a reason"),
            // Checked by `route_readers_show_their_series_value`.
            Route(_) => {}
        }
    }
}

/// Each route reader shows its series: the series is driven to a value no
/// other field holds, and the route's body must carry it.
#[test]
fn route_readers_show_their_series_value() {
    let shards = [Space::new("audit-a"), Space::new("audit-b")];
    let servers: Vec<SpaceServer> = shards
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let cluster = ClusterBuilder::new(FrameworkConfig::default())
        .shards(servers.iter().map(|s| s.addr().to_string()))
        .observe("127.0.0.1:0")
        .build();
    let grid = cluster.grid().unwrap();
    for (i, (name, reader)) in AUDIT.iter().enumerate() {
        let Route(route) = reader else { continue };
        let sentinel = 7_300_001 + i as u64 * 1_000;
        if *name == "grid.shard{i}.op_us" {
            // The fan-out section is the per-shard histograms' growth
            // across a job.
            let before = grid.fanout_profile();
            registry().histogram("grid.shard1.op_us").observe(sentinel);
            let fanout = grid.fanout_since(&before);
            cluster.job_profiler().record_fanout("audit", fanout);
        } else if *name == "monitor.failed_polls.{kind}" {
            let counter = registry().counter("monitor.failed_polls.decode");
            counter.add(sentinel - counter.get());
        } else {
            let counter = registry().counter(name);
            counter.add(sentinel - counter.get());
        }
        let body = {
            use std::io::{Read, Write};
            let addr = cluster.observe_addr().unwrap();
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write!(stream, "GET {route} HTTP/1.0\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            body
        };
        assert!(
            body.contains(&sentinel.to_string()),
            "{route} does not show `{name}` = {sentinel}: {body}"
        );
    }
    cluster.shutdown();
}
