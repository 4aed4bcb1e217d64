//! The correctness digest: one hash over everything a run must reproduce
//! exactly — the counters (without phase timings), every peer's ranking,
//! the accuracy bits and the BitTorrent ledger total.

use robust_vote_sampling::scenario::System;
use robust_vote_sampling::sim::NodeId;

/// Streaming 64-bit FNV-1a over length-framed fields, so `("ab", "c")` and
/// `("a", "bc")` hash differently.
#[derive(Debug, Clone)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one length-framed byte field.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Digest {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
        self
    }

    /// Absorb one integer field.
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.field(&v.to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of a finished run: counters JSON without phase timings,
/// each peer's displayed ranking in id order, the final accuracy's bits
/// and the ledger total.
pub fn of_system(system: &System, accuracy: f64) -> String {
    let mut d = Digest::new();
    d.field(
        system
            .telemetry_snapshot()
            .counters_only()
            .to_json_compact()
            .as_bytes(),
    );
    for i in 0..system.total_nodes() {
        let ranking = system.display_ranking(NodeId::from_index(i));
        d.u64(ranking.len() as u64);
        for m in ranking {
            d.u64(m.index() as u64);
        }
    }
    d.u64(accuracy.to_bits());
    d.u64(system.net().ledger().total_kib());
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robust_vote_sampling::scenario::experiments::vote_sampling::fig6_setup;
    use robust_vote_sampling::scenario::ProtocolConfig;
    use robust_vote_sampling::sim::{SimDuration, SimTime};
    use robust_vote_sampling::trace::TraceGenConfig;

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c; a field also hashes its
        // length prefix, so hash the raw bytes here.
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn fields_are_framed_and_ordered() {
        let mut ab_c = Digest::new();
        ab_c.field(b"ab").field(b"c");
        let mut a_bc = Digest::new();
        a_bc.field(b"a").field(b"bc");
        assert_ne!(ab_c.hex(), a_bc.hex());
        let mut c_ab = Digest::new();
        c_ab.field(b"c").field(b"ab");
        assert_ne!(ab_c.hex(), c_ab.hex());
    }

    fn quick_system(seed: u64) -> (System, f64) {
        let trace = TraceGenConfig::quick(16, SimDuration::from_hours(6)).generate(seed);
        let (setup, m) = fig6_setup(&trace, 0.25, 0.25, seed);
        let mut system = System::new(trace, ProtocolConfig::default(), setup, seed);
        system.set_threads(1);
        system.run_until(
            SimTime::from_hours(6),
            SimDuration::from_hours(1),
            |_, _| {},
        );
        let acc = system.ordering_accuracy(&m);
        (system, acc)
    }

    #[test]
    fn run_digest_is_deterministic_and_seed_sensitive() {
        let (a, acc_a) = quick_system(3);
        let (b, acc_b) = quick_system(3);
        let (c, acc_c) = quick_system(4);
        assert_eq!(of_system(&a, acc_a), of_system(&b, acc_b));
        assert_ne!(of_system(&a, acc_a), of_system(&c, acc_c));
        // The accuracy bits are part of the digest.
        assert_ne!(of_system(&a, acc_a), of_system(&a, acc_a + 1e-9));
    }

    #[test]
    fn digest_ignores_phase_timings() {
        robust_vote_sampling::telemetry::set_enabled(true);
        let (timed, acc_t) = quick_system(5);
        robust_vote_sampling::telemetry::set_enabled(false);
        let (untimed, acc_u) = quick_system(5);
        assert_eq!(of_system(&timed, acc_t), of_system(&untimed, acc_u));
    }
}
