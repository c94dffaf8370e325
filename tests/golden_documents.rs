//! Golden documents: fixed inputs produce `/cluster.json` (with its grid,
//! flight and wire sections), `/profile.json` before any job and with one,
//! and `/metrics.json`; each must parse to the value the hand-written
//! renderers they replaced wrote for the same inputs (`tests/golden/*.json`,
//! captured from those renderers), ignoring key order.
//!
//! The allowed differences: series the registry audit deleted, the
//! grid's write-back counters (`grid.restored_tuples`, in the `grid`
//! section too, and `grid.lost_tuples`), which went with the write-backs,
//! `heartbeat_age_ms` renamed `sample_age_ms`, each worker row's
//! `last_poll`, and the failed-poll counters with the `monitor` section
//! that shows them (added after the captures, and added to them here),
//! and the build's own
//! traffic — the grid's lookup entry, one `take_all` and one `write` on
//! shard 0 — which postdates the captures and is added to them as
//! measured. Fields that depend on time or on the host are compared by
//! type only: sample ages, throughput, flight-ring occupancy, shard
//! addresses (ephemeral ports), microsecond latency histograms and the
//! process gauges.
//!
//! The wire figures were edited in the captures when the per-connection
//! frame pool went: `/cluster.json`'s `wire` section is `frame_bytes`
//! alone, and every frame read counts in `remote.buffer_reuse_misses`
//! (the captured 16 pooled + 4 fresh reads are 20).
//!
//! One test, so no other test in this process moves the global registry.

use std::time::Duration;

use adaptive_spaces::cluster::TaskTiming;
use adaptive_spaces::framework::{ClusterBuilder, FrameworkConfig};
use adaptive_spaces::space::remote::SpaceServer;
use adaptive_spaces::space::{Space, Template, Tuple};
use adaptive_spaces::telemetry::profile::ShardPhase;
use adaptive_spaces::telemetry::{registry, Json, Snapshot};

/// Series in the captured `/metrics.json` that the registry audit deleted,
/// besides the `cluster.<worker>.*` mirror gauges.
const DELETED: &[&str] = &[
    "federation.discovery.announcements",
    "federation.discovery.requests",
    "federation.lease.cancelled",
    "federation.lease.expired",
    "federation.lease.granted",
    "federation.lease.renewed",
    "federation.lookup.queries",
    "grid.lost_tuples",
    "grid.restored_tuples",
    "grid.shards",
    "grid.unhealthy_shards",
    "space.expired.count",
    "space.miss.count",
    "space.read.us",
    "space.read.wait_us",
    "space.take.us",
    "space.take.wait_us",
    "space.txn.abort",
    "space.txn.commit",
    "space.txn.finish_us",
    "space.write.us",
];

/// Kinds of the failed-poll counters, added after the captures.
const FAILED_POLLS: [&str; 4] = ["timeout", "bad_community", "transport", "decode"];

fn type_only(path: &str) -> bool {
    let latency = path.starts_with("/histograms/") && path.contains("_us/");
    [
        "/sample_age_ms",
        "/throughput_per_s",
        "/process.threads",
        "/process.uptime_seconds",
    ]
    .iter()
    .any(|field| path.ends_with(field))
        || path.starts_with("/flight/threads")
        || (path.starts_with("/grid/shards/") && path.ends_with("/addr"))
        || (latency && !path.ends_with("/count"))
}

/// What the comparison sees of a value: objects with sorted keys, and
/// type-only values as their type (arrays of them without repeats).
fn normalize(value: &Json, path: &str) -> Json {
    match value {
        Json::Object(fields) => {
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| {
                    let k = if k == "heartbeat_age_ms" {
                        "sample_age_ms"
                    } else {
                        k
                    };
                    (k.to_owned(), normalize(v, &format!("{path}/{k}")))
                })
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(fields)
        }
        Json::Array(items) => {
            let mut items: Vec<Json> = (0..items.len())
                .map(|i| normalize(&items[i], &format!("{path}/{i}")))
                .collect();
            if type_only(path) {
                items.dedup();
            }
            Json::Array(items)
        }
        Json::Int(_) if type_only(path) => "<int>".into(),
        Json::Float(..) if type_only(path) => "<float>".into(),
        Json::Str(_) if type_only(path) => "<str>".into(),
        other => other.clone(),
    }
}

fn assert_same(addr: std::net::SocketAddr, route: &str, golden: &str, captured: Json) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {route} HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (_, body) = reply.split_once("\r\n\r\n").expect("header block");
    let now = Json::parse(body).unwrap_or_else(|e| panic!("{route}: {e}: {body}"));
    let (captured, now) = (normalize(&captured, ""), normalize(&now, ""));
    assert_eq!(captured, now, "{golden}: captured {captured}\n  now {now}");
}

/// A captured `/metrics.json` series plus what the build left in it.
fn with_build(kind: &str, name: &str, captured: Json, built: &Snapshot) -> Json {
    let counter = |name| built.counters.get(name).copied().unwrap_or(0);
    match kind {
        "counters" => (captured.as_u64().unwrap() + counter(name)).into(),
        "histograms" => {
            let extra = built.histograms.get(name).map_or(0, |h| h.count);
            let mut captured = captured;
            let count = captured["count"].as_u64().unwrap() + extra;
            captured.insert("count", count.into());
            captured
        }
        _ => captured,
    }
}

fn golden(name: &str) -> Json {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

#[test]
fn documents_parse_to_the_values_the_replaced_renderers_wrote() {
    let shards = [Space::new("golden-a"), Space::new("golden-b")];
    let servers: Vec<SpaceServer> = shards
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let cluster = ClusterBuilder::new(FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        ..FrameworkConfig::default()
    })
    .space_name("golden")
    .shards(servers.iter().map(|s| s.addr().to_string()))
    .observe("127.0.0.1:0")
    .build();
    let addr = cluster.observe_addr().unwrap();
    // The build's traffic is the lookup entry and nothing else.
    let built = registry().snapshot();
    let ops = |shard: &str| built.histograms.get(shard).map_or(0, |h| h.count);
    assert_eq!(built.counters.get("space.write.count"), Some(&1));
    assert_eq!((ops("grid.shard0.op_us"), ops("grid.shard1.op_us")), (2, 0));
    assert_same(
        addr,
        "/profile.json",
        "profile_empty",
        golden("profile_empty"),
    );

    // Wire and grid traffic: six tuples through the grid and back.
    let store = cluster.store();
    let items = (0..6).map(|i| Tuple::build("golden.item").field("i", i as i64).done());
    store.write_all(items.collect()).unwrap();
    let template = Template::of_type("golden.item");
    let mut taken = 0;
    while store.take_if_exists(&template).unwrap().is_some() {
        taken += 1;
    }
    assert_eq!(taken, 6);

    let timing = |wait_us, xfer_us, compute_us, write_us| TaskTiming {
        wait_us,
        xfer_us,
        compute_us,
        write_us,
    };
    let job = "pricing \"q\"";
    let hub = cluster.cluster_observer();
    hub.record_load_sample("w0", 12, 30);
    for _ in 0..3 {
        hub.record_attribution(job, "w0", &timing(5, 6, 700, 8));
        hub.record_attribution(job, "w\"1", &timing(7, 3, 900, 2));
    }
    hub.record_load_sample("w0", 20, 35);

    let profiler = cluster.job_profiler();
    profiler.job_started("warmup");
    profiler.job_started(job);
    for id in 0..3 {
        profiler.record_task(job, id, "w0", &timing(100, 100, 2_000, 50), false);
    }
    profiler.record_task(job, 3, "w\"1", &timing(120, 120, 40_000, 60), false);
    profiler.record_task(job, 4, "w\"1", &timing(0, 110, 41_000, 60), true);
    profiler.job_finished(job, 900, 300, 85);
    let shard = |index: usize, ops, total_us| ShardPhase {
        index,
        addr: format!("127.0.0.1:920{}", index + 1),
        ops,
        total_us,
    };
    profiler.record_fanout(job, vec![shard(0, 120, 23_000), shard(1, 80, 17_500)]);

    assert_same(addr, "/profile.json", "profile", golden("profile"));
    let mut cluster_doc = golden("cluster");
    // `w0` had load samples (polls that succeeded), `w"1` only results.
    let mut workers = cluster_doc["workers"].clone();
    for (worker, last_poll) in [("w0", Json::from("ok")), ("w\"1", Json::Null)] {
        let mut row = workers[worker].clone();
        row.insert("last_poll", last_poll);
        workers.insert(worker, row);
    }
    cluster_doc.insert("workers", workers);
    // No worker is watched, so no poll has failed.
    let failed = FAILED_POLLS.map(|kind| (kind, 0u64.into()));
    cluster_doc.insert(
        "monitor",
        Json::object([("failed_polls", Json::object(failed))]),
    );
    let mut wire = cluster_doc["wire"].clone();
    let captured = wire["frame_bytes"].clone();
    wire.insert(
        "frame_bytes",
        with_build("counters", "remote.frame_bytes", captured, &built),
    );
    cluster_doc.insert("wire", wire);
    let Some(Json::Object(grid)) = cluster_doc.get("grid").cloned() else {
        panic!("cluster.json has a grid section");
    };
    let grid = grid.into_iter().filter(|(k, _)| k != "restored_tuples");
    cluster_doc.insert("grid", Json::object(grid));
    assert_same(addr, "/cluster.json", "cluster", cluster_doc);
    let mut metrics = golden("metrics");
    for kind in ["counters", "gauges", "histograms"] {
        let Some(Json::Object(series)) = metrics.get(kind).cloned() else {
            panic!("metrics.json has {kind}");
        };
        let mut kept: Vec<(String, Json)> = series
            .into_iter()
            .filter(|(name, _)| !name.starts_with("cluster.") && !DELETED.contains(&name.as_str()))
            .map(|(name, captured)| {
                let now = with_build(kind, &name, captured, &built);
                (name, now)
            })
            .collect();
        if kind == "counters" {
            // Registered by the `monitor` section's first render.
            let failed =
                FAILED_POLLS.map(|kind| (format!("monitor.failed_polls.{kind}"), 0u64.into()));
            kept.extend(failed);
        }
        metrics.insert(kind, Json::object(kept));
    }
    assert_same(addr, "/metrics.json", "metrics", metrics);
    cluster.shutdown();
}
