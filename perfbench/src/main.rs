//! `rvs-perfbench` — the repository's benchmark.
//!
//! ```text
//! rvs-perfbench --workload paper_3d|scale_4k|byzantine_200 --seed N
//!               --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the untraced end-to-end run of the workload in a child
//! process, repeated while `--seconds` lasts (at least once), and reports
//! the end-to-end metrics as medians (the horizon's time as the sum of its
//! segments' medians). `--trace 1` runs the untraced run once,
//! the traced run, two smaller traced runs for the growth exponent and the
//! audited check, and reports the per-layer metrics. Every run's digest
//! must agree; the last line of standard output is the JSON result.
//! See README.md for the workloads and metrics.

mod affinity;
mod digest;
mod phases;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use phases::Report;
use workload::Workload;

/// Every child must be done by this long after the benchmark started.
const DEADLINE: Duration = Duration::from_secs(170);

/// End-to-end metrics with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("encounters_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ckpt_mib", "MiB"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics with their units.
const PER_LAYER: [(&str, &str); 40] = [
    ("scenario.threads", "count"),
    ("host.nproc", "count"),
    ("scenario.rounds", "count"),
    ("scenario.round_ms.p50", "ms"),
    ("scenario.round_ms.p90", "ms"),
    ("scenario.round_ms.tail", "ms"),
    ("scenario.round_ms.tail_pct", "%"),
    ("scenario.offround_s", "s"),
    ("scenario.gossip_s", "s"),
    ("bittorrent.window_s", "s"),
    ("scenario.unattributed_s", "s"),
    ("scenario.traced_wall_s", "s"),
    ("scenario.growth_exp", "exponent"),
    ("scenario.encounters_attempted", "count"),
    ("scenario.encounters_delivered", "count"),
    ("bartercast.own_records_us", "us"),
    ("bartercast.resync_us", "us"),
    ("bartercast.maxflow_us", "us"),
    ("bartercast.cache_hit_ratio", "fraction"),
    ("bartercast.maxflow_evaluations", "count"),
    ("bartercast.exchanges", "count"),
    ("bartercast.graph_edges", "count"),
    ("modcast.pushed", "count"),
    ("modcast.signature_verifies", "count"),
    ("core.votes_merged", "count"),
    ("core.lists_rejected_inexperienced", "count"),
    ("core.vox_requests", "count"),
    ("metrics.observe_ms", "ms"),
    ("metrics.accuracy", "fraction"),
    ("faults.delayed", "count"),
    ("faults.retries", "count"),
    ("faults.dedup_suppressed", "count"),
    ("guard.accepted", "count"),
    ("guard.rejected", "count"),
    ("shard.bus_mib", "MiB"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("telemetry.overhead_frac", "fraction"),
    ("audit.checks", "count"),
    ("run.failed_frac", "fraction"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    let Some(w) = flags.get("workload").and_then(|n| Workload::parse(n)) else {
        eprintln!(
            "usage: rvs-perfbench --workload {} --seed N --seconds S --trace 0|1",
            Workload::ALL.map(Workload::name).join("|")
        );
        return ExitCode::from(2);
    };
    let seed: u64 = flag(&flags, "seed", 1);
    let seconds: f64 = flag(&flags, "seconds", 10.0);
    if let Some(phase) = flags.get("phase") {
        let peers: usize = flag(&flags, "peers", w.peers());
        let report = match phase.as_str() {
            "e2e" => phases::end_to_end(w, seed, Duration::from_secs_f64(seconds), false),
            "untraced" => phases::end_to_end(w, seed, Duration::ZERO, true),
            "traced" => phases::traced(w, seed, peers, peers == w.peers()),
            "audit" => phases::audit(w, seed),
            other => {
                eprintln!("unknown phase {other}");
                return ExitCode::from(2);
            }
        };
        report.print();
        return ExitCode::SUCCESS;
    }
    let mut bench = Bench::new(w, seed);
    let metrics = if flag::<u8>(&flags, "trace", 0) == 1 {
        bench.traced()
    } else {
        bench.end_to_end(seconds)
    };
    bench.finish(metrics)
}

/// One benchmark invocation: the child runs made so far and their verdicts.
struct Bench {
    w: Workload,
    seed: u64,
    started: Instant,
    attempted: u64,
    failures: Vec<String>,
    digests: Vec<(String, String)>,
}

impl Bench {
    fn new(w: Workload, seed: u64) -> Bench {
        Bench {
            w,
            seed,
            started: Instant::now(),
            attempted: 0,
            failures: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Run `phase` in a child process of this executable. A child that
    /// panics, overruns the deadline or reports a failure counts as a
    /// failed run; its partial report is still returned.
    fn child(&mut self, phase: &str, peers: usize, seconds: f64) -> Report {
        self.attempted += 1;
        let label = format!("run {} ({phase}, {peers} peers)", self.attempted);
        let spawned = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args([
                    "--workload",
                    self.w.name(),
                    "--seed",
                    &self.seed.to_string(),
                ])
                .args(["--phase", phase, "--peers", &peers.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
        });
        let mut proc = match spawned {
            Ok(p) => p,
            Err(e) => {
                self.failures.push(format!("{label}: cannot start: {e}"));
                return Report::default();
            }
        };
        let status = loop {
            match proc.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if self.started.elapsed() < DEADLINE => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    break None;
                }
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = proc.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        let report = Report::parse(&out);
        match status {
            None => self.failures.push(format!("{label}: overran the deadline")),
            Some(s) if !s.success() => self.failures.push(format!("{label}: exited with {s}")),
            Some(_) => {}
        }
        for f in &report.failures {
            self.failures.push(format!("{label}: {f}"));
        }
        match &report.digest {
            // The growth runs have other populations, hence other digests.
            Some(_) if peers != self.w.peers() => {}
            Some(d) => self.digests.push((label, d.clone())),
            None => self.failures.push(format!("{label}: no digest")),
        }
        report
    }

    /// `--trace 0`: the untraced run, repeated while `seconds` lasts.
    fn end_to_end(&mut self, seconds: f64) -> Vec<(&'static str, f64)> {
        let run = self.child("e2e", self.w.peers(), seconds);
        self.check_digests();
        if let Some(reps) = run.get("repetitions") {
            println!("wall_s sums per-segment medians over {reps} full runs of the horizon and any partial one");
        }
        END_TO_END
            .iter()
            .map(|&(name, _)| match name {
                "ok_frac" => (name, self.ok_frac()),
                _ => (name, run.get(name).unwrap_or(0.0)),
            })
            .collect()
    }

    /// `--trace 1`: the untraced run once, the traced run, the growth runs
    /// at a quarter and half of the population, and the audited check.
    fn traced(&mut self) -> Vec<(&'static str, f64)> {
        let n = self.w.peers();
        let untraced = self.child("untraced", n, 0.0);
        let traced = self.child("traced", n, 0.0);
        let quarter = self.child("traced", n / 4, 0.0);
        let half = self.child("traced", n / 2, 0.0);
        let audit = self.child("audit", n, 0.0);
        self.check_digests();

        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, v) in &traced.metrics {
            if let Some(&(known, _)) = PER_LAYER.iter().find(|(k, _)| k == name) {
                values.insert(known, *v);
            }
        }
        let wall = |r: &Report| r.get("scenario.traced_wall_s");
        let points: Vec<(f64, f64)> = [(n / 4, &quarter), (n / 2, &half), (n, &traced)]
            .iter()
            .filter_map(|&(peers, r)| wall(r).map(|w| (peers as f64, w)))
            .collect();
        match stats::growth_exponent(&points) {
            Some(k) if points.len() == 3 => {
                values.insert("scenario.growth_exp", k);
            }
            _ => self
                .failures
                .push("growth exponent: a growth run is missing".into()),
        }
        match (wall(&traced), untraced.get("wall_s")) {
            (Some(t), Some(u)) if u > 0.0 => {
                values.insert("telemetry.overhead_frac", t / u - 1.0);
            }
            _ => self
                .failures
                .push("overhead: traced or untraced wall missing".into()),
        }
        for (from, to) in [
            ("ckpt_save_s", "checkpoint.save_s"),
            ("ckpt_restore_s", "checkpoint.restore_s"),
        ] {
            if let Some(v) = untraced.get(from) {
                values.insert(to, v);
            }
        }
        values.insert("audit.checks", audit.get("audit.checks").unwrap_or(0.0));
        values.insert("scenario.threads", self.w.threads() as f64);
        values.insert("host.nproc", workload::nproc() as f64);
        values.insert("run.failed_frac", 1.0 - self.ok_frac());
        PER_LAYER
            .iter()
            .map(|&(name, _)| match values.get(name) {
                Some(&v) if v.is_finite() => (name, v),
                _ => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    (name, 0.0)
                }
            })
            .collect()
    }

    /// Every digest of this invocation must agree, and with the digest an
    /// earlier invocation of this same executable recorded for the
    /// workload and seed.
    fn check_digests(&mut self) {
        let Some((first_label, first)) = self.digests.first().cloned() else {
            return;
        };
        for (label, d) in &self.digests {
            if *d != first {
                self.failures.push(format!(
                    "digest of {label} is {d}, of {first_label} {first}"
                ));
            }
        }
        if let Some(path) = self.digest_record() {
            match std::fs::read_to_string(&path) {
                Ok(recorded) if recorded.trim() != first => self.failures.push(format!(
                    "digest {first} differs from {} recorded by an earlier run",
                    recorded.trim()
                )),
                Ok(_) => {}
                Err(_) => {
                    let _ = path.parent().map(std::fs::create_dir_all);
                    let _ = std::fs::write(&path, &first);
                }
            }
        }
    }

    /// Where this executable records the digest of (workload, seed): next
    /// to the executable, keyed by a hash of its bytes, so a rebuilt
    /// program starts a fresh record.
    fn digest_record(&self) -> Option<PathBuf> {
        let exe = std::env::current_exe().ok()?;
        let bytes = std::fs::read(&exe).ok()?;
        let mut build = digest::Digest::new();
        build.field(&bytes);
        let dir = exe.parent()?.join("perfbench-digests").join(build.hex());
        Some(dir.join(format!("{}-{}", self.w.name(), self.seed)))
    }

    /// Runs that failed: a run counts once however many of its checks
    /// failed, and each failed check spanning runs (digest agreement,
    /// derived metrics) counts one more, up to the runs attempted.
    fn failed(&self) -> u64 {
        let mut labels: Vec<&str> = self
            .failures
            .iter()
            .map(|f| f.split(':').next().unwrap_or(""))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        (labels.len() as u64).min(self.attempted)
    }

    fn ok_frac(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Print the human-readable table and the JSON result line.
    fn finish(&self, metrics: Vec<(&'static str, f64)>) -> ExitCode {
        let units: BTreeMap<&str, &str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        println!(
            "workload {} seed {} threads {} nproc {} child runs {} failed {}",
            self.w.name(),
            self.seed,
            self.w.threads(),
            workload::nproc(),
            self.attempted,
            self.failed()
        );
        println!("{:<40} {:>18} unit", "metric", "value");
        for (name, v) in &metrics {
            println!("{name:<40} {v:>18.6} {}", units[name]);
        }
        if let Some((_, d)) = self.digests.first() {
            println!("digest {d}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    units[name]
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed(),
            body.join(", ")
        );
        ExitCode::SUCCESS
    }
}

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        if let (Some(name), Some(v)) = (k.strip_prefix("--"), it.next()) {
            flags.insert(name.to_string(), v.clone());
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str, default: T) -> T {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
