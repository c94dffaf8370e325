//! `acc-top`: a live terminal dashboard over the cluster view.
//!
//! Polls a running cluster's `/cluster.json` and `/profile.json` routes
//! (mounted by `ACC_OBSERVE` or `ClusterBuilder::observe`) and draws, from
//! those two documents alone, the per-worker table — load and framework
//! load from the monitor's SNMP polls, results attributed, throughput and
//! compute-time quantiles from the result tuples, the age of the newest
//! poll, and straggler flags — the grid's shard list, and the latest job's
//! waterfall: like `top`, but for the whole cluster.
//!
//! ```text
//! cargo run --release --example acc_top -- 127.0.0.1:9137
//! ```
//!
//! Flags:
//! * `--once`         fetch both documents once, print the raw
//!   `/cluster.json` on stdout (the headless/CI mode) and the rendered
//!   table and waterfall on stderr, and exit.
//! * `--interval-ms N` redraw period (default 1000).
//!
//! The address defaults to `$ACC_OBSERVE`, then `127.0.0.1:9137`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use adaptive_spaces::telemetry::Json;

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        ));
    };
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("?");
        return Err(std::io::Error::other(format!("server said: {status}")));
    }
    Ok(body.to_owned())
}

fn parse(path: &str, body: &str) -> std::io::Result<Json> {
    Json::parse(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}")))
}

fn int(value: &Json) -> i64 {
    value.as_i64().unwrap_or(0)
}

fn ms(us: &Json) -> f64 {
    int(us) as f64 / 1_000.0
}

/// The worker table of a `/cluster.json` document, then the grid's shard
/// list when the cluster runs over one.
fn render_cluster(doc: &Json) -> String {
    let mut out = format!(
        "{:<18} {:>5} {:>5} {:>7} {:>8} {:>9} {:>9} {:>7} {:>5}  {}\n",
        "WORKER", "LOAD", "FW", "TASKS", "TASK/S", "CP50(us)", "CP99(us)", "AGE", "HIST", "FLAGS"
    );
    let workers = doc["workers"].as_object().unwrap_or_default();
    for (name, w) in workers {
        let age = match w["sample_age_ms"].as_u64() {
            Some(ms) => format!("{ms}ms"),
            None => "-".to_owned(),
        };
        let straggler = w["straggler"] == Json::Bool(true);
        out.push_str(&format!(
            "{:<18} {:>5} {:>5} {:>7} {:>8.1} {:>9} {:>9} {:>7} {:>5}  {}\n",
            name,
            int(&w["load"]["last"]),
            int(&w["framework_load"]["last"]),
            int(&w["tasks_done"]),
            w["throughput_per_s"].as_f64().unwrap_or(0.0),
            int(&w["compute_us"]["p50"]),
            int(&w["compute_us"]["p99"]),
            age,
            int(&w["history_samples"]),
            if straggler { "STRAGGLER" } else { "" },
        ));
    }
    if workers.is_empty() {
        out.push_str("(no workers have reported yet)\n");
    }
    if let Some(shards) = doc["grid"]["shards"].as_array() {
        out.push_str("\nspace grid:\n");
        for shard in shards {
            let healthy = shard["healthy"] == Json::Bool(true);
            out.push_str(&format!(
                "  shard {} {} {}\n",
                int(&shard["index"]),
                shard["addr"].as_str().unwrap_or("?"),
                if healthy { "healthy" } else { "UNHEALTHY" }
            ));
        }
    }
    out
}

/// `label  N.N ms ###` rows, the bars scaled to the widest row.
fn bars(out: &mut String, rows: &[(&str, i64)]) {
    const WIDTH: i64 = 24;
    let widest = rows.iter().map(|&(_, us)| us).max().unwrap_or(0).max(1);
    for &(label, us) in rows {
        let bar = "#".repeat((us.saturating_mul(WIDTH) / widest).clamp(0, WIDTH) as usize);
        out.push_str(&format!(
            "    {label:<13}{:>10.1} ms {bar}\n",
            us as f64 / 1_000.0
        ));
    }
}

/// The waterfall of a `/profile.json` document: phases with proportional
/// bars, then the critical path, then the grid fan-out.
fn render_profile(doc: &Json) -> String {
    let Some(job) = doc["job"].as_str() else {
        return "no jobs profiled yet\n".to_owned();
    };
    let running = doc["finished"] != Json::Bool(true);
    let mut out = format!(
        "job {job} — {} tasks ({} errors), wall {} ms{} — verdict: {}\n  evidence: {}\n",
        int(&doc["tasks"]),
        int(&doc["errors"]),
        int(&doc["wall_ms"]),
        if running { " (running)" } else { "" },
        doc["verdict"].as_str().unwrap_or("?"),
        doc["evidence"].as_str().unwrap_or(""),
    );
    out.push_str("  phases (totals across tasks):\n");
    let phases = [
        ("dispatch", "dispatch_us"),
        ("space wait", "wait_us"),
        ("transfer", "xfer_us"),
        ("compute", "compute_us"),
        ("result write", "write_us"),
        ("aggregation", "aggregation_us"),
    ];
    bars(
        &mut out,
        &phases.map(|(label, key)| (label, int(&doc["phases"][key]))),
    );
    let cp = &doc["critical_path"];
    let segments = cp["segments"].as_array().unwrap_or_default();
    let omitted = int(&cp["omitted"]);
    out.push_str(&format!(
        "  critical path (worker {}, {:.1} ms, {} segments{}):\n",
        cp["worker"]
            .as_str()
            .filter(|w| !w.is_empty())
            .unwrap_or("-"),
        ms(&cp["total_us"]),
        segments.len() as i64 + omitted,
        if omitted > 0 {
            format!(", {omitted} omitted")
        } else {
            String::new()
        }
    ));
    let rows: Vec<(&str, i64)> = segments
        .iter()
        .map(|s| (s["label"].as_str().unwrap_or("?"), int(&s["duration_us"])))
        .collect();
    bars(&mut out, &rows);
    let fanout: Vec<String> = doc["fanout"]
        .as_array()
        .unwrap_or_default()
        .iter()
        .map(|s| {
            let addr = s["addr"].as_str().unwrap_or("?");
            let (shard, ops) = (int(&s["shard"]), int(&s["ops"]));
            format!(
                "shard {shard} ({addr}) {ops} ops {:.1} ms",
                ms(&s["total_us"])
            )
        })
        .collect();
    if !fanout.is_empty() {
        out.push_str(&format!("  fan-out: {}\n", fanout.join(" | ")));
    }
    out
}

/// The table and the waterfall, from one fetch of each route. A server
/// without `/profile.json` draws the table alone.
fn fetch_and_render(addr: &str) -> std::io::Result<(String, String)> {
    let body = http_get(addr, "/cluster.json")?;
    let mut view = render_cluster(&parse("/cluster.json", &body)?);
    if let Ok(profile) = http_get(addr, "/profile.json") {
        view.push('\n');
        view.push_str(&render_profile(&parse("/profile.json", &profile)?));
    }
    Ok((body, view))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let interval_ms: u64 = args
        .iter()
        .position(|a| a == "--interval-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--") && a.contains(':'))
        .cloned()
        .or_else(|| std::env::var("ACC_OBSERVE").ok().filter(|v| !v.is_empty()))
        .unwrap_or_else(|| "127.0.0.1:9137".into());

    if once {
        // Headless mode: the raw document on stdout for scripts, the
        // rendered view on stderr for people.
        match fetch_and_render(&addr) {
            Ok((body, view)) => {
                println!("{body}");
                eprint!("{view}");
            }
            Err(e) => {
                eprintln!("acc-top: {addr}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut failures = 0u32;
    loop {
        match fetch_and_render(&addr) {
            Ok((_, view)) => {
                failures = 0;
                // Clear screen + home, then the view.
                print!("\x1b[2J\x1b[H");
                println!("acc-top — {addr} (refresh {interval_ms} ms, ctrl-c to quit)");
                println!();
                print!("{view}");
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                failures += 1;
                eprintln!("acc-top: {addr}: {e}");
                if failures >= 5 {
                    eprintln!("acc-top: giving up after {failures} consecutive failures");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn worker_table_and_shard_list_render_from_cluster_json() {
        let view = render_cluster(&golden(include_str!("../tests/golden/cluster.json")));
        let header = view.lines().next().unwrap();
        assert!(
            header.starts_with("WORKER") && header.contains("AGE"),
            "{view}"
        );
        // load, framework load, tasks, task/s, p50, p99 and sample age as
        // the document has them; the golden `w"1` was never polled.
        let row = |name: &str| {
            let line = view.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace().skip(1).take(7).collect::<Vec<_>>()
        };
        assert_eq!(
            row("w0 ")[..6],
            ["20", "15", "3", "0.0", "700", "700"],
            "{view}"
        );
        assert_eq!(row("w\"1 ")[6], "-", "{view}");
        assert!(view.contains("space grid:\n  shard 0 127.0.0.1:"), "{view}");
        assert!(view.contains("healthy\n  shard 1 "), "{view}");
        let no_workers = Json::object([("workers", Json::object::<&str>([]))]);
        assert_eq!(
            render_cluster(&no_workers).lines().nth(1),
            Some("(no workers have reported yet)")
        );
    }

    #[test]
    fn waterfall_renders_from_profile_json() {
        let view = render_profile(&golden(include_str!("../tests/golden/profile.json")));
        for line in [
            "job pricing \"q\" — 5 tasks (1 errors), wall 85 ms — verdict: straggler-bound",
            "  critical path (worker w\"1, 82.2 ms, 3 segments):",
            "  fan-out: shard 0 (127.0.0.1:9201) 120 ops 23.0 ms | shard 1 (127.0.0.1:9202) 80 ops 17.5 ms",
        ] {
            assert!(view.lines().any(|l| l == line), "{line:?} not in {view}");
        }
        // The dominant phase and the longest segment get the full bar.
        for row in ["    compute", "    task 4"] {
            let line = view.lines().find(|l| l.starts_with(row)).unwrap();
            assert!(line.ends_with(&"#".repeat(24)), "{view}");
        }
        let empty = golden(include_str!("../tests/golden/profile_empty.json"));
        assert_eq!(render_profile(&empty), "no jobs profiled yet\n");
    }
}
