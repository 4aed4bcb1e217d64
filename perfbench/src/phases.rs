//! The measurements, each run in a child process of its own: the untimed
//! audited check, the untraced end-to-end run and the traced per-layer run.
//! A phase reports `metric NAME VALUE`, `digest HEX` and `fail REASON`
//! lines on standard output for the parent to collect.

use std::hint::black_box;
use std::time::{Duration, Instant};

use robust_vote_sampling::scenario::System;
use robust_vote_sampling::sim::{DetRng, NodeId};
use robust_vote_sampling::telemetry::{self, Snapshot};

use crate::affinity;
use crate::digest;
use crate::stats;
use crate::workload::{Built, Workload};

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub digest: Option<String>,
    pub failures: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    /// Write the report in the line protocol the parent parses.
    pub fn print(&self) {
        for (name, value) in &self.metrics {
            println!("metric {name} {value}");
        }
        if let Some(d) = &self.digest {
            println!("digest {d}");
        }
        for f in &self.failures {
            println!("fail {}", f.replace('\n', " "));
        }
    }

    /// Parse the line protocol back; unknown lines are ignored.
    pub fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let mut parts = line.splitn(2, ' ');
            match (parts.next(), parts.next()) {
                (Some("metric"), Some(rest)) => {
                    let mut kv = rest.splitn(2, ' ');
                    if let (Some(k), Some(Ok(v))) = (kv.next(), kv.next().map(str::parse)) {
                        r.put(k, v);
                    }
                }
                (Some("digest"), Some(d)) => r.digest = Some(d.to_string()),
                (Some("fail"), Some(f)) => r.fail(f.to_string()),
                _ => {}
            }
        }
        r
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

// Short operations repeat and report their median, so that a burst of load
// from neighbours on a shared host (up to 80 % slower for a second or two)
// moves only some of the samples.
/// Set-ups before each repetition of the horizon: at least `SETUP_REPS`, for
/// at least `SETUP_MIN_TIME`; `setup_s` is the median of all of them, so its
/// samples spread over the whole run.
const SETUP_REPS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(300);
/// Checkpoint save-and-restore pairs when their times are wanted: at least
/// this many, and for at least `CKPT_MIN_TIME`.
const CKPT_MIN_REPS: usize = 5;
const CKPT_MIN_TIME: Duration = Duration::from_secs(3);
/// Time each per-layer micro-measurement repeats for, at least one pass.
const MICRO_MIN_TIME: Duration = Duration::from_millis(400);
/// Pairs in the fixed maxflow sample.
const MAXFLOW_PAIRS: usize = 256;

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn phase_s(snap: &Snapshot, phase: &str) -> f64 {
    snap.phase_nanos.get(phase).copied().unwrap_or(0) as f64 / 1e9
}

/// Time `f` repeatedly: at least `min_reps` calls and until `min_time` has
/// passed. Returns each call's seconds and the last call's value; earlier
/// values are dropped outside the timing.
fn repeat<T>(min_reps: usize, min_time: Duration, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_reps && start.elapsed() >= min_time {
            return (times, value);
        }
    }
}

/// Mean µs per call of `f` over all of `items`, passing over them until
/// `MICRO_MIN_TIME` has gone by.
fn micro_us<T: Copy>(items: &[T], mut f: impl FnMut(T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let (passes, ()) = repeat(1, MICRO_MIN_TIME, || items.iter().for_each(|&x| f(x)));
    passes.iter().sum::<f64>() * 1e6 / (passes.len() * items.len()) as f64
}

/// Run a built system over its horizon with the accuracy observer at
/// `run_until`'s cadence; returns the final accuracy.
fn run(built: &mut Built) -> f64 {
    let mut accuracy = f64::NAN;
    let expected = built.expected;
    built
        .system
        .run_until(built.end, built.sample_every, |s, _| {
            accuracy = s.ordering_accuracy(&expected);
        });
    accuracy
}

/// Run a built system over its horizon in segments of one observer period,
/// each a `run_until` call with the accuracy observer, and push segment
/// `k`'s seconds onto `segments[k]`. Segment `k` runs pinned to
/// `cpus[(first + k) % cpus.len()]`, unpinned when `cpus` is empty. Returns
/// the final accuracy, or `None` when `deadline` passed at a segment
/// boundary before the horizon.
fn run_segments(
    built: &mut Built,
    deadline: Option<Instant>,
    segments: &mut Vec<Vec<f64>>,
    cpus: &[usize],
    first: usize,
) -> Option<f64> {
    let mut accuracy = f64::NAN;
    let expected = built.expected;
    let mut k = 0;
    while built.system.now() < built.end {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        if !cpus.is_empty() {
            affinity::set(&[cpus[(first + k) % cpus.len()]]);
        }
        let until = (built.system.now() + built.sample_every).min(built.end);
        let t = Instant::now();
        built.system.run_until(until, built.sample_every, |s, _| {
            accuracy = s.ordering_accuracy(&expected);
        });
        let dt = t.elapsed().as_secs_f64();
        if segments.len() == k {
            segments.push(Vec::new());
        }
        segments[k].push(dt);
        k += 1;
    }
    Some(accuracy)
}

/// The untraced run. The workload is set up (repeatedly, for `setup_s`) and
/// run over its horizon, again and again while `budget` lasts: the first
/// repetition always finishes, a later one stops at the segment boundary
/// where the budget ran out. `wall_s` sums each segment's median over the
/// repetitions that reached it. A single-threaded workload rotates its
/// segments over the CPUs, starting each repetition one CPU further on (see
/// [`affinity`]); a pool spreads over them by itself. The first
/// repetition's final state is checkpointed and restored, once, or with
/// `time_checkpoint` alternately for `CKPT_MIN_TIME` to time the two.
pub fn end_to_end(w: Workload, seed: u64, budget: Duration, time_checkpoint: bool) -> Report {
    telemetry::set_enabled(false);
    let mut r = Report::default();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut repetitions = 0;
    let mut delivered = 0;
    let cpus = if w.threads() == 1 {
        affinity::allowed()
    } else {
        Vec::new()
    };
    while repetitions == 0 || started.elapsed() < budget {
        // One system at a time: the previous repetition's is dropped by
        // now, so the peak resident set is one run's.
        let (times, mut built) = repeat(SETUP_REPS, SETUP_MIN_TIME, || w.build(seed, w.peers()));
        setups.extend(times);
        let deadline = (repetitions > 0).then(|| started + budget);
        let ran = run_segments(&mut built, deadline, &mut segments, &cpus, repetitions);
        if !cpus.is_empty() {
            affinity::set(&cpus);
        }
        let Some(accuracy) = ran else {
            break;
        };
        repetitions += 1;
        let d = digest::of_system(&built.system, accuracy);
        match &r.digest {
            Some(first) if *first != d => r.fail(format!(
                "digest of repetition {repetitions} is {d}, of the first {first}"
            )),
            Some(_) => {}
            None => r.digest = Some(d),
        }
        if accuracy.is_nan() || accuracy < w.accuracy_floor() {
            r.fail(format!(
                "accuracy {accuracy} is below the workload's floor {}",
                w.accuracy_floor()
            ));
        }
        if repetitions == 1 {
            delivered = built.system.telemetry_snapshot().encounters.delivered;
            r.put("peak_rss_mib", peak_rss_mib());
            checkpoint(&built.system, time_checkpoint, &mut r);
        }
    }
    let wall = stats::sum_of_medians(&segments).unwrap_or(0.0);
    r.put("wall_s", wall);
    r.put("setup_s", stats::median(&setups).unwrap_or(0.0));
    r.put("encounters_per_s", delivered as f64 / wall);
    r.put("repetitions", repetitions as f64);
    r
}

/// Save a checkpoint of `system` and restore it; the restored system must
/// re-encode byte-identical. With `timed`, saves and restores alternate, so
/// both medians span the whole window.
fn checkpoint(system: &System, timed: bool, r: &mut Report) {
    let (min_reps, min_time) = if timed {
        (CKPT_MIN_REPS, CKPT_MIN_TIME)
    } else {
        (1, Duration::ZERO)
    };
    let (mut saves, mut restores) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let (ckpt, restored) = loop {
        let t = Instant::now();
        let ckpt = system.checkpoint();
        saves.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let restored = System::restore(&ckpt);
        restores.push(t.elapsed().as_secs_f64());
        if saves.len() >= min_reps && started.elapsed() >= min_time {
            break (ckpt, restored);
        }
    };
    match restored {
        Ok(back) if back.checkpoint().as_bytes() == ckpt.as_bytes() => {}
        Ok(_) => r.fail("restore(checkpoint) does not re-encode byte-identical".into()),
        Err(e) => r.fail(format!("restore(checkpoint) failed: {e}")),
    }
    if timed {
        r.put("ckpt_save_s", stats::median(&saves).unwrap_or(0.0));
        r.put("ckpt_restore_s", stats::median(&restores).unwrap_or(0.0));
    }
    r.put("ckpt_mib", ckpt.as_bytes().len() as f64 / (1024.0 * 1024.0));
}

/// The audited check: one untimed run under `System::enable_audit`, over the
/// horizon in a single `run_until` call, as `rvs run` drives it; its digest
/// must equal the segmented untraced run's.
pub fn audit(w: Workload, seed: u64) -> Report {
    telemetry::set_enabled(false);
    let mut r = Report::default();
    let mut built = w.build(seed, w.peers());
    built.system.enable_audit();
    let accuracy = run(&mut built);
    let system = built.system;
    let checks = system.auditor().map_or(0, |a| a.checks());
    if checks == 0 {
        r.fail("the auditor performed no checks".into());
    }
    for v in system.audit_violations().iter().take(5) {
        r.fail(format!("audit violation: {v}"));
    }
    r.put("audit.checks", checks as f64);
    r.digest = Some(digest::of_system(&system, accuracy));
    r
}

/// The traced run: every `System::step` timed from outside, phase timers
/// on, and the run finished with `run_until` so its state matches the
/// untraced run's. With `micro`, the layer functions are then timed on the
/// final state.
pub fn traced(w: Workload, seed: u64, peers: usize, micro: bool) -> Report {
    telemetry::set_enabled(true);
    let mut r = Report::default();
    let Built {
        mut system,
        expected,
        end,
        sample_every,
    } = w.build(seed, peers);

    let gossip_nanos = |s: &System| s.telemetry_snapshot().phase_nanos.get("gossip").copied();
    let mut accuracy = f64::NAN;
    let mut observe_ms = Vec::new();
    let mut observer = |s: &System| {
        let t = Instant::now();
        accuracy = s.ordering_accuracy(&expected);
        observe_ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    let mut round_ms = Vec::new();
    let mut offround_s = 0.0;

    // `run_until`'s loop, unrolled so each step can be timed: step, and at
    // each sample point materialize BitTorrent and observe — which is what
    // `run_until` to the current instant does.
    let start = Instant::now();
    let mut next_sample = system.now();
    while system.now() < end {
        let before = gossip_nanos(&system);
        let t = Instant::now();
        system.step();
        let dt = t.elapsed().as_secs_f64();
        if gossip_nanos(&system) != before {
            round_ms.push(dt * 1e3);
        } else {
            offround_s += dt;
        }
        if system.now() >= next_sample {
            let now = system.now();
            system.run_until(now, sample_every, |s, _| observer(s));
            next_sample = now + sample_every;
        }
    }
    system.run_until(end, sample_every, |s, _| observer(s));
    let wall = start.elapsed().as_secs_f64();

    let snap = system.telemetry_snapshot();
    let gossip_s = phase_s(&snap, "gossip");
    let window_s = phase_s(&snap, "bittorrent");
    r.digest = Some(digest::of_system(&system, accuracy));
    r.put("scenario.traced_wall_s", wall);
    r.put("scenario.gossip_s", gossip_s);
    r.put("bittorrent.window_s", window_s);
    r.put("scenario.unattributed_s", wall - gossip_s - window_s);
    r.put("scenario.offround_s", offround_s);
    r.put("scenario.rounds", round_ms.len() as f64);
    match (
        stats::percentile(&round_ms, 50.0),
        stats::percentile(&round_ms, 90.0),
        stats::tail(&round_ms),
    ) {
        (Some(p50), Some(p90), Some((tail_pct, tail))) => {
            r.put("scenario.round_ms.p50", p50);
            r.put("scenario.round_ms.p90", p90);
            r.put("scenario.round_ms.tail", tail);
            r.put("scenario.round_ms.tail_pct", tail_pct);
        }
        _ => r.fail(format!(
            "only {} rounds: too few for p50/p90",
            round_ms.len()
        )),
    }
    if !micro {
        return r;
    }

    r.put(
        "metrics.observe_ms",
        stats::mean(&observe_ms).unwrap_or(0.0),
    );
    r.put("metrics.accuracy", accuracy);
    let e = &snap.encounters;
    r.put("scenario.encounters_attempted", e.attempted as f64);
    r.put("scenario.encounters_delivered", e.delivered as f64);
    let b = &snap.barter;
    let queries = b.cache_hits + b.cache_misses;
    r.put(
        "bartercast.cache_hit_ratio",
        if queries == 0 {
            0.0
        } else {
            b.cache_hits as f64 / queries as f64
        },
    );
    r.put(
        "bartercast.maxflow_evaluations",
        b.maxflow_evaluations as f64,
    );
    r.put("bartercast.exchanges", b.exchanges as f64);
    r.put("modcast.pushed", snap.moderation.pushed as f64);
    r.put(
        "modcast.signature_verifies",
        snap.moderation.signature_verifies as f64,
    );
    r.put("core.votes_merged", snap.votes.votes_merged as f64);
    r.put(
        "core.lists_rejected_inexperienced",
        snap.votes.lists_rejected_inexperienced as f64,
    );
    r.put("core.vox_requests", snap.voxpopuli.requests as f64);
    r.put("faults.delayed", snap.faults.delayed as f64);
    r.put("faults.retries", snap.faults.retries as f64);
    r.put(
        "faults.dedup_suppressed",
        snap.faults.dedup_suppressed as f64,
    );
    let g = &snap.guard;
    r.put("guard.accepted", g.accepted as f64);
    let rejected = g.rejected_list_too_long
        + g.rejected_duplicate_entry
        + g.rejected_future_timestamp
        + g.rejected_stale_timestamp
        + g.rejected_bad_signature
        + g.rejected_invalid_node
        + g.rejected_self_reference
        + g.rejected_hearsay_record
        + g.rejected_oversized
        + g.rejected_malformed
        + g.rejected_rate_limited
        + g.rejected_quarantined;
    r.put("guard.rejected", rejected as f64);
    r.put(
        "shard.bus_mib",
        snap.shard.bus_bytes as f64 / (1024.0 * 1024.0),
    );

    // Layer functions timed on the final state. Phase timers stay on but
    // none of these calls reaches one.
    let bc = system.bartercast();
    let nodes: Vec<NodeId> = (0..system.total_nodes()).map(NodeId::from_index).collect();
    r.put(
        "bartercast.graph_edges",
        nodes
            .iter()
            .map(|&i| bc.graph(i).edge_count())
            .sum::<usize>() as f64,
    );
    r.put(
        "bartercast.own_records_us",
        micro_us(&nodes, |i| {
            black_box(bc.own_records(i));
        }),
    );
    let ledger = system.net().ledger();
    let mut synced = bc.clone();
    nodes
        .iter()
        .for_each(|&i| synced.sync_own_records(i, ledger));
    r.put(
        "bartercast.resync_us",
        micro_us(&nodes, |i| synced.sync_own_records(i, ledger)),
    );
    drop(synced);
    let pairs = maxflow_pairs(seed, system.trace_peer_count());
    r.put(
        "bartercast.maxflow_us",
        micro_us(&pairs, |(i, j)| {
            black_box(bc.contribution_kib_uncached(i, j));
        }),
    );
    r
}

/// A fixed sample of distinct `(i, j)` trace-peer pairs, drawn from `seed`.
fn maxflow_pairs(seed: u64, n: usize) -> Vec<(NodeId, NodeId)> {
    if n < 2 {
        return Vec::new();
    }
    let mut rng = DetRng::new(seed);
    (0..MAXFLOW_PAIRS)
        .map(|_| {
            let i = rng.index(n);
            let j = (i + 1 + rng.index(n - 1)) % n;
            (NodeId::from_index(i), NodeId::from_index(j))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_line_protocol() {
        let mut r = Report::default();
        r.put("wall_s", 1.25);
        r.put("a.b_ms", 0.1 + 0.2);
        r.digest = Some("00ff".into());
        r.fail("bad\nthing".into());
        let text = format!(
            "metric wall_s {}\nmetric a.b_ms {}\ndigest 00ff\nfail bad thing\nnoise\n",
            1.25,
            0.1 + 0.2
        );
        let back = Report::parse(&text);
        assert_eq!(back.get("wall_s"), Some(1.25));
        assert_eq!(
            back.get("a.b_ms").map(f64::to_bits),
            Some((0.1f64 + 0.2).to_bits())
        );
        assert_eq!(back.digest.as_deref(), Some("00ff"));
        assert_eq!(back.failures, vec!["bad thing".to_string()]);
    }

    #[test]
    fn maxflow_pairs_are_distinct_in_range_and_seeded() {
        let pairs = maxflow_pairs(7, 100);
        assert_eq!(pairs.len(), MAXFLOW_PAIRS);
        assert!(pairs
            .iter()
            .all(|&(i, j)| i != j && i.index() < 100 && j.index() < 100));
        assert_eq!(pairs, maxflow_pairs(7, 100));
        assert_ne!(pairs, maxflow_pairs(8, 100));
    }
}
