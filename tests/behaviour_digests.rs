//! Absolute behaviour pins.
//!
//! Every differential suite compares two runs of the same build (thread
//! counts, resume points, cache on/off), so a refactor that moves
//! behaviour identically on every leg passes all of them. These digests
//! pin the output itself: FNV-1a over the counters-only telemetry JSON,
//! every node's displayed ranking, and the final ordering-accuracy bits.
//!
//! The scenarios cover what the 12-peer, 2 h fault-free goldens never
//! reach: the VoxPopuli backoff/decliner branch (chaos schedule, guard
//! off, retry on), the guarded encounter under attack (flooder plus
//! malformer), and the guarded encounter with honest traffic only.
//!
//! A digest may only change together with a CHANGES.md entry that says
//! why behaviour moved.

use robust_vote_sampling::attacks::{Flooder, Malformer};
use robust_vote_sampling::faults::{
    BurstLoss, CrashSpec, FaultConfig, FaultSchedule, PartitionSpec, RetryConfig,
};
use robust_vote_sampling::guard::GuardConfig;
use robust_vote_sampling::scenario::experiments::vote_sampling::fig6_setup;
use robust_vote_sampling::scenario::{ProtocolConfig, System};
use robust_vote_sampling::telemetry::GuardCounters;
use rvs_sim::{NodeId, SimDuration, SimTime};
use rvs_trace::TraceGenConfig;

const PEERS: usize = 24;
const HOURS: u64 = 12;

/// The `tests/chaos.rs` acceptance schedule: 30 % burst loss, 5 s mean
/// latency with full jitter, 5 % duplication, retry on, a partition over
/// a third of the population from 6 h to 10 h, and crash-restarts (only
/// the first falls inside the 12 h horizon).
fn chaos_schedule() -> FaultSchedule {
    FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            jitter_spread: 1.0,
            loss: 0.0,
            duplicate: 0.05,
            burst: Some(BurstLoss::with_overall_loss(0.3, 8.0)),
            retry: Some(RetryConfig::default()),
        },
        partitions: vec![PartitionSpec {
            name: "split".into(),
            members: (0..8).map(NodeId::from_index).collect(),
            start: SimTime::from_hours(6),
            heal: SimTime::from_hours(10),
        }],
        crashes: [(3, 8), (11, 15), (17, 22)]
            .into_iter()
            .map(|(node, at)| CrashSpec {
                node: NodeId::from_index(node),
                at: SimTime::from_hours(at),
            })
            .collect(),
    }
}

/// Which plane configuration a pinned run uses.
#[derive(Clone, Copy)]
enum Mode {
    /// Guard disabled, retry on: the VoxPopuli backoff branch.
    GuardOff,
    /// Active guard with a small inbox, 5 flooders at 12 sends per
    /// round, and the malformer at 100 ‰.
    Byzantine,
    /// Active guard with a small inbox and honest traffic only.
    GuardOn,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Run one pinned scenario and return `(digest, system)`.
fn run(mode: Mode, seed: u64) -> (u64, System) {
    run_with(mode, seed, |_| {})
}

/// [`run`], with `arm` applied to the system before it starts.
fn run_with(mode: Mode, seed: u64, arm: impl FnOnce(&mut System)) -> (u64, System) {
    let trace = TraceGenConfig::quick(PEERS, SimDuration::from_hours(HOURS)).generate(seed);
    let (setup, m) = fig6_setup(&trace, 0.25, 0.25, seed);
    let protocol = ProtocolConfig {
        experience_t_mib: 1.0,
        ..ProtocolConfig::default()
    };
    let mut system = System::with_faults(trace, protocol, setup, seed, chaos_schedule());
    system.set_threads(1);
    let guarded = GuardConfig {
        inbox_cap: 8,
        ..GuardConfig::active()
    };
    match mode {
        Mode::GuardOff => {}
        Mode::Byzantine => {
            system.set_guard_config(guarded);
            system.set_flooder(Flooder::new((19..24).map(NodeId::from_index), 12));
            system.set_malformer(Malformer::new(100));
        }
        Mode::GuardOn => system.set_guard_config(guarded),
    }
    arm(&mut system);
    system.run_until(
        SimTime::from_hours(HOURS),
        SimDuration::from_hours(HOURS),
        |_, _| {},
    );

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let counters = system
        .telemetry_snapshot()
        .counters_only()
        .to_json_compact();
    fnv1a(&mut hash, counters.as_bytes());
    for i in 0..system.total_nodes() {
        let ranking = system.display_ranking(NodeId::from_index(i));
        fnv1a(&mut hash, &(ranking.len() as u64).to_le_bytes());
        for moderator in ranking {
            fnv1a(&mut hash, &(moderator.index() as u64).to_le_bytes());
        }
    }
    fnv1a(
        &mut hash,
        &system.ordering_accuracy(&m).to_bits().to_le_bytes(),
    );
    (hash, system)
}

fn assert_pinned(mode: Mode, name: &str, pins: [(u64, u64); 2]) {
    for (seed, expected) in pins {
        let (digest, _) = run(mode, seed);
        assert_eq!(
            digest, expected,
            "{name} seed {seed}: behaviour digest moved to {digest:#018x}; if this is \
             intended, update the pin and say in CHANGES.md why behaviour changed"
        );
    }
}

#[test]
fn guard_off_chaos_with_retry_is_pinned() {
    assert_pinned(
        Mode::GuardOff,
        "guard-off chaos",
        [(101, 0x0504b027b743f733), (202, 0x944de1888c613fef)],
    );
}

#[test]
fn byzantine_chaos_under_attack_is_pinned() {
    assert_pinned(
        Mode::Byzantine,
        "byzantine chaos",
        [(101, 0x74aae86250a635c2), (202, 0x7f8ee7df00cc2a6a)],
    );
}

#[test]
fn guarded_chaos_without_attack_is_pinned() {
    assert_pinned(
        Mode::GuardOn,
        "guarded chaos",
        [(101, 0xb272c305916c4bb8), (202, 0x4a9b87c692e0ceda)],
    );
}

/// The pins are only worth having if the scenarios reach the branches
/// they are meant to cover.
#[test]
fn pinned_scenarios_reach_their_branches() {
    let (_, off) = run(Mode::GuardOff, 101);
    let snap = off.telemetry_snapshot();
    let vox = &snap.voxpopuli;
    assert!(vox.responses > 0, "no VoxPopuli request was answered");
    assert!(
        vox.declines_bootstrapping > 0,
        "no VoxPopuli request was declined, so the decliner rotation never ran"
    );
    assert!(snap.faults.retries > 0, "the retry path never engaged");
    assert_eq!(snap.guard.total(), 0, "a disabled guard counted something");

    let (_, byz) = run(Mode::Byzantine, 101);
    let g = byz.telemetry_snapshot().guard;
    assert!(g.flooder_sends > 0 && g.malformer_mutations > 0);
    assert!(g.accepted > 0 && g.total() > 0);
}

/// A disabled guard is an inert gate: arming the malformer at its full
/// rate changes nothing — no wire mutation, no malformer draw, no guard
/// counter — because messages are only mutated on their way through an
/// armed gate.
#[test]
fn disabled_guard_is_an_inert_gate() {
    for seed in [101, 202] {
        let (plain, _) = run(Mode::GuardOff, seed);
        let (armed, system) = run_with(Mode::GuardOff, seed, |s| {
            s.set_malformer(Malformer::new(1000));
        });
        assert_eq!(armed, plain, "seed {seed}: an inert gate changed behaviour");
        assert_eq!(
            system.telemetry_snapshot().guard,
            GuardCounters::default(),
            "seed {seed}: an inert gate counted something"
        );
    }
}
