//! Consumer-group membership, heartbeats, failure detection and rebalancing.
//!
//! The paper relies on Kafka's consumer-group protocol for health monitoring
//! and failure detection (§4.2): members heartbeat, a member that misses its
//! session timeout is declared failed (the *detection* phase of Figure 7a),
//! the member list is then allowed to stabilize before a new generation is
//! announced (the *consensus* phase), and removed members are fenced so they
//! can neither receive nor send further messages.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crossbeam::channel::Sender;

use kar_types::ComponentId;

use crate::partition_set::PartitionSet;

/// Liveness state of a group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// The member is heartbeating within its session timeout.
    Live,
    /// The member missed its session timeout and has been fenced; it will be
    /// removed from the group at the next rebalance.
    Failed,
}

/// A member of a consumer group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// The component this member belongs to.
    pub component: ComponentId,
    /// The partition set this member consumes (the paper's Kafka deployment
    /// assigns each component a *set* of partitions, §4.1).
    pub partitions: PartitionSet,
    /// Current liveness state.
    pub state: MemberState,
    /// Broker time of the last heartbeat received from this member.
    pub last_heartbeat: Duration,
}

/// A snapshot of a consumer group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Current group generation; incremented by every completed rebalance.
    pub generation: u64,
    /// Members, both live and failed-but-not-yet-removed.
    pub members: Vec<MemberInfo>,
}

impl GroupView {
    /// Components currently considered live.
    pub fn live_components(&self) -> Vec<ComponentId> {
        self.members
            .iter()
            .filter(|m| m.state == MemberState::Live)
            .map(|m| m.component)
            .collect()
    }

    /// True if `component` is a live member.
    pub fn is_live(&self, component: ComponentId) -> bool {
        self.members
            .iter()
            .any(|m| m.component == component && m.state == MemberState::Live)
    }

    /// The partition set owned by `component`, if it is (or was) a member.
    pub fn partitions_of(&self, component: ComponentId) -> Option<PartitionSet> {
        self.members
            .iter()
            .find(|m| m.component == component)
            .map(|m| m.partitions.clone())
    }
}

/// Events emitted by the group coordinator.
///
/// Timestamps are broker-clock durations (elapsed since broker creation) so
/// the fault-injection harness can split an outage into its detection,
/// consensus and reconciliation phases exactly as in Figure 7a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEvent {
    /// A new member joined the group.
    MemberJoined {
        /// The joining component.
        component: ComponentId,
        /// Broker time of the join.
        at: Duration,
    },
    /// A member left the group gracefully.
    MemberLeft {
        /// The leaving component.
        component: ComponentId,
        /// Broker time of the departure.
        at: Duration,
    },
    /// A member missed its session timeout and was declared failed (and
    /// fenced). This marks the end of the *detection* phase for that failure.
    FailureDetected {
        /// The failed component.
        component: ComponentId,
        /// Broker time at which the failure was detected.
        at: Duration,
    },
    /// Membership stabilized and a new generation was announced. This marks
    /// the end of the *consensus* phase; the runtime then runs reconciliation.
    RebalanceCompleted {
        /// The new group generation.
        generation: u64,
        /// Components that are live members of the new generation.
        live: Vec<ComponentId>,
        /// Components removed from the group by this rebalance.
        removed: Vec<ComponentId>,
        /// Broker time at which the rebalance completed.
        at: Duration,
    },
}

impl GroupEvent {
    /// Broker time at which the event occurred.
    pub fn at(&self) -> Duration {
        match self {
            GroupEvent::MemberJoined { at, .. }
            | GroupEvent::MemberLeft { at, .. }
            | GroupEvent::FailureDetected { at, .. }
            | GroupEvent::RebalanceCompleted { at, .. } => *at,
        }
    }
}

/// Internal state of one consumer group.
#[derive(Debug, Default)]
pub(crate) struct Group {
    pub(crate) generation: u64,
    pub(crate) members: HashMap<ComponentId, MemberInfo>,
    /// Deadline (broker time) of the pending rebalance, if any. Extended by
    /// further membership changes, mirroring Kafka's stabilization window.
    pub(crate) rebalance_deadline: Option<Duration>,
    pub(crate) subscribers: Vec<Sender<GroupEvent>>,
    /// Live members found stale by the previous detection pass and not heard
    /// from since: the next pass that still finds them stale may declare
    /// them failed.
    suspects: HashSet<ComponentId>,
}

impl Group {
    pub(crate) fn view(&self) -> GroupView {
        let mut members: Vec<MemberInfo> = self.members.values().cloned().collect();
        members.sort_by_key(|m| m.component);
        GroupView {
            generation: self.generation,
            members,
        }
    }

    pub(crate) fn emit(&mut self, event: GroupEvent) {
        // Drop subscribers whose receiving end is gone.
        self.subscribers.retain(|s| s.send(event.clone()).is_ok());
    }

    /// One detection pass, suspect-then-confirm: a live member whose
    /// heartbeat is older than `session_timeout` becomes a *suspect*; a
    /// suspect still stale on the next pass — it did not heartbeat in
    /// between — is declared failed, if this pass may `confirm`. A pass that
    /// may not (the coordinator itself was not running, so silence proves
    /// nothing) only names suspects. Returns the failed components.
    pub(crate) fn detect_failures(
        &mut self,
        now: Duration,
        session_timeout: Duration,
        confirm: bool,
    ) -> Vec<ComponentId> {
        let mut failed = Vec::new();
        let mut stale = HashSet::new();
        for member in self.members.values_mut() {
            if member.state != MemberState::Live
                || now.saturating_sub(member.last_heartbeat) <= session_timeout
            {
                continue;
            }
            if confirm && self.suspects.contains(&member.component) {
                member.state = MemberState::Failed;
                failed.push(member.component);
            } else {
                stale.insert(member.component);
            }
        }
        // Whoever is not stale now has been heard from: suspicion lapses.
        self.suspects = stale;
        failed.sort();
        failed
    }

    /// Completes a due rebalance: bumps the generation and removes failed
    /// members. Returns the emitted event.
    pub(crate) fn complete_rebalance(&mut self, now: Duration) -> GroupEvent {
        self.generation += 1;
        let removed: Vec<ComponentId> = self
            .members
            .values()
            .filter(|m| m.state == MemberState::Failed)
            .map(|m| m.component)
            .collect();
        for c in &removed {
            self.members.remove(c);
        }
        let mut live: Vec<ComponentId> = self.members.keys().copied().collect();
        live.sort();
        let mut removed = removed;
        removed.sort();
        self.rebalance_deadline = None;
        GroupEvent::RebalanceCompleted {
            generation: self.generation,
            live,
            removed,
            at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(id: u64, partition: usize, hb_ms: u64, state: MemberState) -> MemberInfo {
        MemberInfo {
            component: ComponentId::from_raw(id),
            partitions: PartitionSet::contiguous(partition, 1),
            state,
            last_heartbeat: Duration::from_millis(hb_ms),
        }
    }

    #[test]
    fn view_is_sorted_and_reports_liveness() {
        let mut group = Group::default();
        group
            .members
            .insert(ComponentId::from_raw(2), member(2, 1, 0, MemberState::Live));
        group.members.insert(
            ComponentId::from_raw(1),
            member(1, 0, 0, MemberState::Failed),
        );
        let view = group.view();
        assert_eq!(view.members[0].component, ComponentId::from_raw(1));
        assert_eq!(view.live_components(), vec![ComponentId::from_raw(2)]);
        assert!(view.is_live(ComponentId::from_raw(2)));
        assert!(!view.is_live(ComponentId::from_raw(1)));
        assert_eq!(
            view.partitions_of(ComponentId::from_raw(1)),
            Some(PartitionSet::contiguous(0, 1))
        );
        assert_eq!(view.partitions_of(ComponentId::from_raw(9)), None);
    }

    #[test]
    fn detect_failures_only_flags_stale_live_members() {
        let mut group = Group::default();
        group
            .members
            .insert(ComponentId::from_raw(1), member(1, 0, 0, MemberState::Live));
        group.members.insert(
            ComponentId::from_raw(2),
            member(2, 1, 90, MemberState::Live),
        );
        group.members.insert(
            ComponentId::from_raw(3),
            member(3, 2, 0, MemberState::Failed),
        );
        // The first stale observation only makes member 1 a suspect.
        let timeout = Duration::from_millis(50);
        assert!(group
            .detect_failures(Duration::from_millis(100), timeout, true)
            .is_empty());
        assert_eq!(
            group.members[&ComponentId::from_raw(1)].state,
            MemberState::Live
        );
        // Still stale on the next pass: failed.
        let failed = group.detect_failures(Duration::from_millis(101), timeout, true);
        assert_eq!(failed, vec![ComponentId::from_raw(1)]);
        assert_eq!(
            group.members[&ComponentId::from_raw(1)].state,
            MemberState::Failed
        );
        assert_eq!(
            group.members[&ComponentId::from_raw(2)].state,
            MemberState::Live
        );
        // A second detection pass does not re-report the same member.
        let failed_again = group.detect_failures(Duration::from_millis(102), timeout, true);
        assert!(failed_again.is_empty());
    }

    #[test]
    fn a_heartbeat_between_two_passes_clears_the_suspicion() {
        let c = ComponentId::from_raw(1);
        let timeout = Duration::from_millis(50);
        let mut group = Group::default();
        group.members.insert(c, member(1, 0, 0, MemberState::Live));
        // Stale at 100 ms: suspected. A heartbeat lands before the next
        // pass, which therefore finds the member fresh.
        assert!(group
            .detect_failures(Duration::from_millis(100), timeout, true)
            .is_empty());
        group.members.get_mut(&c).unwrap().last_heartbeat = Duration::from_millis(101);
        assert!(group
            .detect_failures(Duration::from_millis(102), timeout, true)
            .is_empty());
        // Going silent again starts over: suspect first, failed one pass on.
        assert!(group
            .detect_failures(Duration::from_millis(200), timeout, true)
            .is_empty());
        assert_eq!(
            group.detect_failures(Duration::from_millis(201), timeout, true),
            vec![c]
        );
    }

    #[test]
    fn a_pass_that_may_not_confirm_only_names_suspects() {
        let c = ComponentId::from_raw(1);
        let timeout = Duration::from_millis(50);
        let mut group = Group::default();
        group.members.insert(c, member(1, 0, 0, MemberState::Live));
        // However often a non-confirming pass finds the member stale, it
        // stays live; the first confirming pass after one fails it.
        for at in [100, 200, 300] {
            assert!(group
                .detect_failures(Duration::from_millis(at), timeout, false)
                .is_empty());
        }
        assert_eq!(group.members[&c].state, MemberState::Live);
        assert_eq!(
            group.detect_failures(Duration::from_millis(301), timeout, true),
            vec![c]
        );
    }

    #[test]
    fn complete_rebalance_removes_failed_members_and_bumps_generation() {
        let mut group = Group::default();
        group.members.insert(
            ComponentId::from_raw(1),
            member(1, 0, 0, MemberState::Failed),
        );
        group
            .members
            .insert(ComponentId::from_raw(2), member(2, 1, 0, MemberState::Live));
        group.rebalance_deadline = Some(Duration::from_millis(10));
        let event = group.complete_rebalance(Duration::from_millis(12));
        match event {
            GroupEvent::RebalanceCompleted {
                generation,
                live,
                removed,
                at,
            } => {
                assert_eq!(generation, 1);
                assert_eq!(live, vec![ComponentId::from_raw(2)]);
                assert_eq!(removed, vec![ComponentId::from_raw(1)]);
                assert_eq!(at, Duration::from_millis(12));
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(group.members.len(), 1);
        assert_eq!(group.rebalance_deadline, None);
        assert_eq!(group.generation, 1);
    }

    #[test]
    fn emit_drops_closed_subscribers() {
        let mut group = Group::default();
        let (tx1, rx1) = crossbeam::channel::unbounded();
        let (tx2, rx2) = crossbeam::channel::unbounded();
        group.subscribers.push(tx1);
        group.subscribers.push(tx2);
        drop(rx2);
        group.emit(GroupEvent::MemberJoined {
            component: ComponentId::from_raw(1),
            at: Duration::ZERO,
        });
        assert_eq!(group.subscribers.len(), 1);
        assert_eq!(rx1.len(), 1);
    }

    #[test]
    fn group_event_timestamp_accessor() {
        let e = GroupEvent::FailureDetected {
            component: ComponentId::from_raw(1),
            at: Duration::from_secs(3),
        };
        assert_eq!(e.at(), Duration::from_secs(3));
        let e = GroupEvent::MemberLeft {
            component: ComponentId::from_raw(1),
            at: Duration::from_secs(4),
        };
        assert_eq!(e.at(), Duration::from_secs(4));
    }
}
