//! The protocol encounter: one fixed BarterCast → ModerationCast → vote
//! lists → VoxPopuli sequence (Figs 1–3), every inbound sub-message
//! behind one admission gate. While the guard plane is disabled the gate
//! admits everything at once — no malformer draw, no validation, no
//! counter — so one sequence serves both modes.

use super::{votes_from, System};
use rvs_attacks::Malformer;
use rvs_bartercast::validate_records;
use rvs_core::{validate_topk, validate_vote_list, TopKList, VoteEntry};
use rvs_faults::BackoffDecision;
use rvs_guard::{MessageClass, RejectReason};
use rvs_modcast::{validate_moderation_list, Moderation};
use rvs_sim::{DetRng, NodeId, SimTime};

/// Bound on each node's remembered VoxPopuli decliners (responder
/// rotation state).
const DECLINER_WINDOW: usize = 8;

impl System {
    /// A full protocol encounter between online nodes `i` (active) and
    /// `j`. Each exchange delivers `i → j`, then `j → i` only if the first
    /// half was admitted — a peer does not answer a message it refused.
    pub(super) fn encounter(&mut self, i: NodeId, j: NodeId) {
        // BarterCast: refresh own records, then swap them (the responder's
        // records are extracted only once the initiator's half is in).
        self.sync_own_records(i);
        self.sync_own_records(j);
        self.bc.mark_exchange();
        if self.deliver_barter_half(i, j) {
            self.deliver_barter_half(j, i);
        }

        // ModerationCast push/pull: both lists drawn from the gossip stream.
        let mods_i = self.mc.extract_from(i, &mut self.rng_gossip);
        let mods_j = self.mc.extract_from(j, &mut self.rng_gossip);
        if self.deliver_moderations_half(i, j, mods_i) {
            self.deliver_moderations_half(j, i, mods_j);
        }

        // Vote sampling: experience computed before any merge; the audit
        // pre-state is the votes each side holds from the other.
        let e_i_accepts_j = self.experienced(i, j);
        let e_j_accepts_i = self.experienced(j, i);
        let pre = self.audit.is_some().then(|| {
            (
                votes_from(self.vs.ballot(i), j),
                votes_from(self.vs.ballot(j), i),
            )
        });
        let list_i = self.outgoing_vote_list(i);
        let list_j = self.outgoing_vote_list(j);
        let votes_i_to_j = self.deliver_votes_half(i, j, list_i, e_j_accepts_i);
        let votes_j_to_i = votes_i_to_j && self.deliver_votes_half(j, i, list_j, e_i_accepts_j);

        let bootstrapping = self.cfg.vox_enabled && !self.is_crowd(i) && self.vs.needs_bootstrap(i);
        let vox_breach = bootstrapping && self.vox_bootstrap(i, j);

        if let Some((pre_j_in_i, pre_i_in_j)) = pre {
            let sides = [
                (i, j, e_i_accepts_j, pre_j_in_i, votes_j_to_i),
                (j, i, e_j_accepts_i, pre_i_in_j, votes_i_to_j),
            ];
            self.audit_encounter(sides, vox_breach);
        }
    }

    /// Refresh `p`'s own BarterCast records from the ledger, skipped
    /// while `p`'s ledger change stamp has not moved since its last sync.
    /// The skip is exact: in `p`'s graph the `p`-reported sides of `p`'s
    /// incident edges are max-registers written only by this sync, with
    /// ledger values, so re-installing unchanged values changes no weight,
    /// epoch or change-log entry.
    fn sync_own_records(&mut self, p: NodeId) {
        let ledger = self.net.ledger();
        let stamp = Some(ledger.change_stamp(p));
        if self.bc_synced[p.index()] != stamp {
            self.bc.sync_own_records(p, ledger);
            self.bc_synced[p.index()] = stamp;
        }
    }

    /// The admission gate for one message from `sender` on `class`: the
    /// wire (an armed malformer draws once and may corrupt `payload` via
    /// `mutate`), the sender's admission budget, then `validate`; each
    /// rejection is attributed to one [`RejectReason`] counter. Returns
    /// whether the message is admitted. Inert while the guard plane is
    /// disabled: admits at once, touching no RNG and no counter.
    fn gate<T>(
        &mut self,
        sender: NodeId,
        class: MessageClass,
        payload: &mut T,
        mutate: impl FnOnce(&Malformer, &mut T, SimTime, &mut DetRng) -> bool,
        validate: impl FnOnce(&System, &T) -> Result<(), RejectReason>,
    ) -> bool {
        if !self.guard.enabled() {
            return true;
        }
        if let Some(m) = self.malformer {
            if m.should_mutate(&mut self.rng_malform)
                && mutate(&m, payload, self.now, &mut self.rng_malform)
            {
                self.guard.counters_mut().malformer_mutations += 1;
            }
        }
        let verdict = self
            .guard
            .admit(sender, class, self.now)
            .and_then(|()| validate(self, payload));
        match verdict {
            Ok(()) => self.guard.note_accepted(),
            Err(reason) => self.guard.note_rejection(sender, reason, self.now),
        }
        verdict.is_ok()
    }

    /// One BarterCast half: `s`'s own records into `r`.
    fn deliver_barter_half(&mut self, s: NodeId, r: NodeId) -> bool {
        let mut recs = self.bc.own_records(s);
        let admitted = self.gate(
            s,
            MessageClass::BarterRecords,
            &mut recs,
            |m, p, _, rng| m.mutate_records(p, s, rng),
            // An honest record set holds at most two directed edges per
            // counterparty, hence the 2n length bound.
            |sys, p| {
                let max_kib = sys.guard.config().max_record_kib;
                validate_records(p, s, 2 * sys.n_total, sys.n_total, max_kib)
            },
        );
        if admitted {
            self.bc.deliver_records(r, s, &recs);
        }
        admitted
    }

    /// One ModerationCast half: `s`'s extracted list into `r`.
    fn deliver_moderations_half(
        &mut self,
        s: NodeId,
        r: NodeId,
        mut list: Vec<Moderation>,
    ) -> bool {
        let admitted = self.gate(
            s,
            MessageClass::Moderations,
            &mut list,
            |m, p, now, rng| m.mutate_moderations(p, now, rng),
            |sys, p| {
                let max_len = sys.cfg.modcast.max_list;
                let skew = sys.guard.config().max_timestamp_skew;
                validate_moderation_list(p, &sys.registry, max_len, sys.n_total, sys.now, skew)
            },
        );
        if admitted {
            self.mc.deliver_list(&self.registry, r, &list, self.now);
        }
        admitted
    }

    /// One vote-list half: `s`'s local votes into `r`'s ballot, where
    /// `experienced` (`E_r(s)`) then decides the merge.
    fn deliver_votes_half(
        &mut self,
        s: NodeId,
        r: NodeId,
        mut list: Vec<VoteEntry>,
        experienced: bool,
    ) -> bool {
        let admitted = self.gate(
            s,
            MessageClass::VoteList,
            &mut list,
            |m, p, now, rng| m.mutate_votes(p, now, rng),
            |sys, p| {
                let g = sys.guard.config();
                let n = sys.n_total;
                validate_vote_list(p, n, n, sys.now, g.max_timestamp_skew, g.replay_window)
            },
        );
        if admitted {
            self.vs
                .deliver_vote_list(s, r, &list, self.now, experienced);
        }
        admitted
    }

    /// One top-K response from `s` to bootstrapping `r`.
    fn deliver_topk_half(&mut self, s: NodeId, r: NodeId, mut list: TopKList) -> bool {
        let admitted = self.gate(
            s,
            MessageClass::TopK,
            &mut list,
            |m, p, _, rng| m.mutate_topk(p, rng),
            |sys, p| validate_topk(p, sys.cfg.votes.k, sys.n_total),
        );
        if admitted {
            self.vs.deliver_external_topk(r, list);
        }
        admitted
    }

    /// VoxPopuli bootstrap for `i` (Fig 3c): a crowd member answers with
    /// its fabricated list; an honest `j` with its ballot's top-K, or it
    /// declines while bootstrapping itself. With retry enabled, requests
    /// are paced by capped exponential backoff and recent decliners are
    /// skipped (responder rotation); a gate rejection reads as a decline.
    /// Returns whether a bootstrapping `j` answered (an audit breach).
    fn vox_bootstrap(&mut self, i: NodeId, j: NodeId) -> bool {
        if let Some(crowd) = self.crowd.as_ref().filter(|c| c.is_member(j)) {
            let list = crowd.topk_response(&[], self.cfg.votes.k);
            self.deliver_topk_half(j, i, list);
            return false;
        }
        let (idx, now, retry) = (i.index(), self.now, self.faults.config().retry);
        if let Some(rc) = retry {
            if !self.vox_backoff[idx].ready(now) || self.vox_decliners[idx].contains(&j) {
                return false;
            }
            self.vox_backoff[idx].on_attempt(now, &rc);
        }
        let j_bootstrapping = self.vs.needs_bootstrap(j);
        let answered = match self.vs.topk_response(j) {
            Some(list) => self.deliver_topk_half(j, i, list),
            None => {
                self.vs.note_vox_decline();
                false
            }
        };
        if let Some(rc) = retry {
            let decliners = &mut self.vox_decliners[idx];
            if answered {
                self.vox_backoff[idx].on_success();
                decliners.clear();
            } else {
                decliners.insert(j);
                while decliners.len() > DECLINER_WINDOW {
                    decliners.pop_first();
                }
                match self.vox_backoff[idx].on_failure(now, &rc) {
                    BackoffDecision::Retry => self.faults.counters_mut().retries += 1,
                    BackoffDecision::GaveUp => {
                        // The round is abandoned; after a cooldown a fresh
                        // round may query anyone again.
                        self.faults.counters_mut().backoff_gaveups += 1;
                        decliners.clear();
                    }
                }
            }
        }
        answered && j_bootstrapping
    }

    /// Post-encounter invariant checks (audit mode only): own-record
    /// freshness, ballot bound, experience gating, and VoxPopuli bootstrap
    /// honesty. Each side is `(receiver, sender, E_receiver(sender), votes
    /// from sender before, vote list admitted)`; gating only constrains
    /// admitted lists.
    fn audit_encounter(
        &mut self,
        sides: [(NodeId, NodeId, bool, usize, bool); 2],
        vox_breach: bool,
    ) {
        let (b_max, revalidate, now) = (self.cfg.votes.b_max, self.cfg.votes.revalidate, self.now);
        let ledger = self.net.ledger();
        let aud = self.audit.as_mut().expect("caller checked audit is on");
        for (r, s, accepts, pre, admitted) in sides {
            // Freshness: after the sync, `r`'s graph knows at least the
            // ledger's value for every edge incident to `r` (an injected
            // report may legitimately exceed it).
            let graph = self.bc.graph(r);
            let stale = ledger
                .uploads_from(r)
                .into_iter()
                .map(|(to, kib)| (r, to, kib))
                .chain(
                    ledger
                        .uploads_to(r)
                        .into_iter()
                        .map(|(from, kib)| (from, r, kib)),
                )
                .map(|(f, t, kib)| (f, t, graph.edge_kib(f, t), kib))
                .find(|&(_, _, have, kib)| have < kib);
            aud.check(stale.is_none(), || {
                let (f, t, have, kib) = stale.expect("rendered only for a stale edge");
                format!("{r}'s graph holds {f}->{t} = {have} KiB < ledger {kib} KiB at {now}")
            });
            let ballot = self.vs.ballot(r);
            let (uv, post) = (ballot.unique_voters(), votes_from(ballot, s));
            aud.check(uv <= b_max, || {
                format!("{r}'s ballot holds {uv} unique voters > B_max {b_max} at {now}")
            });
            // A rejected sender must not add votes: untouched without
            // revalidation, shed entirely with it.
            if admitted && !accepts {
                let ok = if revalidate { post == 0 } else { post == pre };
                aud.check(ok, || {
                    format!(
                        "inexperienced {s}'s votes in {r}'s ballot went {pre} -> {post} at {now}"
                    )
                });
            }
        }
        let (i, j) = (sides[0].0, sides[0].1);
        aud.check(!vox_breach, || {
            format!("bootstrapping {j} answered {i}'s VoxPopuli request at {now}")
        });
    }

    fn outgoing_vote_list(&mut self, node: NodeId) -> Vec<VoteEntry> {
        match &self.crowd {
            Some(crowd) if crowd.is_member(node) => crowd.vote_list(),
            _ => self.vs.vote_list_of(node, &self.mc, &mut self.rng_gossip),
        }
    }
}
