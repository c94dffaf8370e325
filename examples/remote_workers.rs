//! Deployment-shaped demo: the master hosts the space and serves it over
//! TCP; workers reach it through `RemoteSpace` proxies — the way worker
//! machines on a real network would (JavaSpaces is a *network-accessible*
//! repository).
//!
//! Run with: `cargo run --release --example remote_workers`
//!
//! Observability: set `ACC_OBSERVE=127.0.0.1:9137` to mount the scrape
//! endpoint (including the `/cluster` view), and pass `--hold-ms <n>` to
//! keep the cluster alive after the run so it can be scraped live.

use std::sync::Arc;
use std::time::Duration;

use adaptive_spaces::apps::pricing::{price_sequential, OptionSpec, PricingApp};
use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{ClusterBuilder, FrameworkConfig};
use adaptive_spaces::space::{RemoteSpace, Template, TupleStore};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hold_ms: Option<u64> = args.iter().position(|a| a == "--hold-ms").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--hold-ms needs a number");
                std::process::exit(2);
            })
    });
    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(20),
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config).build();
    let mut app = PricingApp::new(OptionSpec::paper_default(), 20, 50);
    cluster.install(&app);

    // Serve the space over TCP and attach three remote workers.
    let addr = cluster.serve_space().expect("bind loopback");
    println!("space served at {addr}");
    for i in 0..3 {
        let id = cluster
            .add_remote_worker(NodeSpec::new(format!("remote-{i}"), 800, 256))
            .expect("remote worker connects");
        println!("remote-{i} registered as {id}");
    }

    // An external observer can also watch the space over the wire.
    let observer = Arc::new(RemoteSpace::connect(addr).expect("observer connects"));
    let observer2 = observer.clone();
    let watcher = std::thread::spawn(move || {
        let template = Template::of_type("acc.task");
        let mut max_seen = 0usize;
        for _ in 0..200 {
            if let Ok(n) = observer2.count(&template) {
                max_seen = max_seen.max(n);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        max_seen
    });

    let report = cluster.run(&mut app);
    let tasks_in_flight = watcher.join().unwrap();

    println!();
    println!(
        "run complete: {}/{} results in {:.1} ms",
        report.results_collected, report.times.tasks, report.times.parallel_ms
    );
    println!("peak tasks visible to the remote observer: {tasks_in_flight}");
    let parallel = app.result();
    let sequential = price_sequential(&PricingApp::new(OptionSpec::paper_default(), 20, 50));
    assert_eq!(parallel, sequential, "remote run is bit-identical");
    println!(
        "price bracket: high {:.4} / low {:.4} (identical to sequential)",
        parallel.high, parallel.low
    );
    for worker in cluster.workers() {
        println!("  {}: {} tasks", worker.name(), worker.tasks_done());
    }
    if let Some(ms) = hold_ms {
        match cluster.observe_addr() {
            Some(addr) => println!("holding for {ms} ms; observability endpoint at http://{addr}"),
            None => println!("holding for {ms} ms (set ACC_OBSERVE=127.0.0.1:0 for an endpoint)"),
        }
        std::thread::sleep(Duration::from_millis(ms));
    }
    cluster.shutdown();
}
