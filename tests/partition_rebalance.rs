//! Seeded chaos and property tests for multi-partition components with
//! rebalance-safe consumers.
//!
//! The chaos harness drives a mesh whose components each own a 4-partition
//! home set while a seeded RNG interleaves kill/recovery (which re-homes the
//! victims' partition *ranges* onto survivors) and runtime retries, over
//! four consumer lanes per component. Every decision the harness makes — kill timing,
//! victim choice, service times, workload sizes — comes from one explicit
//! `SplitMix64` seed that is printed at the start of the run and embedded in
//! every assertion message, so a failure reproduces by re-running the same
//! test (or exporting `KAR_CHAOS_SEED=<seed>` to pin all three CI seeds to
//! one value). The invariants:
//!
//! * per-actor FIFO: each checked actor's durable log is exactly the sent
//!   sequence, in order;
//! * exactly-once: every acknowledged call is applied exactly once, across
//!   every kill, retry and partition re-homing;
//! * at least one mid-flight partition re-homing is observed per run
//!   (recovery log `rehomed_partitions`), and every re-homed partition's
//!   ownership epoch was bumped — the fence that cuts off slow consumers of
//!   the old assignment.
//!
//! The property tests (offline proptest shim) pin down the two routing
//! invariants the tentpole rests on: partition routing is *stable under
//! assignment-table changes* (adoption never re-routes a key) and batch
//! appends keep *contiguous offsets per partition* even when a keyed batch
//! spans several partitions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_queue::{Broker, BrokerConfig, PartitionSet};
use kar_types::{ActorRef, ComponentId, KarError, KarResult, Value};
use proptest::prelude::*;

mod common;
use common::{chaos_seed, SplitMix64};

/// The mesh topic every component's partitions live in (`kar::mesh::TOPIC`).
const TOPIC: &str = "kar";

/// Deterministic seeds for the CI matrix. `KAR_CHAOS_SEED` overrides all
/// three for reproducing a failure.
const CI_SEEDS: [u64; 3] = [0x000A_11CE, 0x00B0_B5ED, 0x00C0_FFEE];

/// A durable event log with ordering verification built into the actor (the
/// same shape as tests/parallel_dispatch.rs), so violations are detected at
/// the point they would occur, whichever component or partition serves the
/// invocation after a rebalance.
struct Ledger;

impl Actor for Ledger {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            // Sequence-numbered record: dedupes runtime retries, flags any
            // first execution that arrives out of order. An optional second
            // argument is a service time in microseconds.
            "record" => {
                let i = args[0].as_i64().unwrap_or(-1);
                if let Some(service) = args.get(1).and_then(Value::as_i64) {
                    std::thread::sleep(Duration::from_micros(service as u64));
                }
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                if entries.iter().any(|e| e.as_i64() == Some(i)) {
                    return Ok(Outcome::value("dup"));
                }
                if i != entries.len() as i64 {
                    ctx.state().set(
                        "violation",
                        Value::from(format!(
                            "record {i} arrived with {} entries applied",
                            entries.len()
                        )),
                    )?;
                }
                entries.push(Value::Int(i));
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value("ok"))
            }
            // Blind append with a service time, used by the noise firehose.
            "push" => {
                if let Some(service) = args.get(1).and_then(Value::as_i64) {
                    std::thread::sleep(Duration::from_micros(service as u64));
                }
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                entries.push(args[0].clone());
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value(Value::Null))
            }
            "read" => Ok(Outcome::value(
                ctx.state().get("log")?.unwrap_or(Value::List(Vec::new())),
            )),
            "violation" => Ok(Outcome::value(
                ctx.state().get("violation")?.unwrap_or(Value::Null),
            )),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// One full chaos run from one seed: kill/recovery + partition re-homing +
/// retries, then the exactly-once / FIFO / re-homing assertions.
fn run_chaos(matrix_seed: u64) {
    let seed = chaos_seed(matrix_seed);
    eprintln!(
        "partition_rebalance chaos: seed {seed:#x} \
         (reproduce with KAR_CHAOS_SEED={seed:#x})"
    );
    let mut rng = SplitMix64::new(seed);
    const PARTITIONS: usize = 4;
    let actors = 4 + rng.below(0, 3) as usize; // 4–6 checked actors
    let calls = 15 + rng.below(0, 11) as i64; // 15–25 calls each
    let noise_actors = 6 + rng.below(0, 5) as usize; // 6–10 noise actors
    let noise_messages = 40 + rng.below(0, 41) as i64; // 40–80 tells each

    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(PARTITIONS));
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| c.host("Ledger", || Box::new(Ledger)));
    mesh.add_component(node, "replica-b", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();

    // Noise firehose: deep queues keep retries and mailboxes busy while
    // the chaos thread kills components mid-traffic.
    let noise_service = rng.below(150, 400) as i64;
    for i in 0..noise_messages {
        for actor in 0..noise_actors {
            client
                .tell(
                    &ActorRef::new("Ledger", format!("noise-{actor}")),
                    "push",
                    vec![Value::Int(i), Value::Int(noise_service)],
                )
                .unwrap_or_else(|e| panic!("[seed {seed:#x}] noise tell failed: {e:?}"));
        }
    }

    // Chaos: seeded kill/replace rounds. Every round kills one live
    // application component (never the client) chosen by the RNG and adds a
    // replacement, so each recovery re-homes a 4-partition range onto the
    // survivors. The rounds always run to completion; the straggler driver
    // below keeps checked traffic in flight across every one of them, so
    // the re-homing is genuinely mid-flight.
    let rounds = 2 + rng.below(0, 2); // 2–3 kills
    let chaos_done = Arc::new(AtomicBool::new(false));
    let chaos_flag = chaos_done.clone();
    let chaos_mesh = mesh.clone();
    let client_component = client.component_id();
    let chaos_plan: Vec<(u64, u64)> = (0..rounds)
        .map(|_| (rng.below(40, 100), rng.next_u64()))
        .collect();
    let chaos = std::thread::spawn(move || {
        for (round, (delay_ms, pick)) in chaos_plan.into_iter().enumerate() {
            std::thread::sleep(Duration::from_millis(delay_ms));
            let victims: Vec<ComponentId> = chaos_mesh
                .live_components()
                .into_iter()
                .filter(|c| *c != client_component)
                .collect();
            if victims.is_empty() {
                continue;
            }
            let victim = victims[pick as usize % victims.len()];
            chaos_mesh.kill_component(victim);
            let node = chaos_mesh.add_node();
            chaos_mesh.add_component(node, &format!("replacement-{round}"), |c| {
                c.host("Ledger", || Box::new(Ledger))
            });
        }
        // Let the last kill's failure detection + recovery overlap live
        // traffic too before declaring chaos over.
        std::thread::sleep(Duration::from_millis(80));
        chaos_flag.store(true, Ordering::SeqCst);
    });

    // Straggler driver: sequential, sequence-numbered calls that keep
    // running until every chaos round (and a grace window) has passed, so
    // every kill and every partition re-homing happens under live checked
    // traffic. Its per-actor FIFO/exactly-once is verified like the others'.
    let straggler_calls = {
        let client = client.clone();
        let chaos_done = chaos_done.clone();
        std::thread::spawn(move || {
            let target = ActorRef::new("Ledger", "chk-straggler");
            let mut sent = 0i64;
            while !chaos_done.load(Ordering::SeqCst) || sent == 0 {
                client
                    .call(&target, "record", vec![Value::Int(sent), Value::Int(1_000)])
                    .unwrap_or_else(|e| panic!("straggler call {sent} failed: {e:?}"));
                sent += 1;
            }
            sent
        })
    };

    // Checked traffic: per-actor sequential blocking calls, so per-actor
    // order is enforced end to end and every acknowledged call must be
    // applied exactly once, whatever the rebalances do.
    let service = rng.below(800, 2_000) as i64;
    let drivers: Vec<_> = (0..actors)
        .map(|actor| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", format!("chk-{actor}"));
                for i in 0..calls {
                    client
                        .call(&target, "record", vec![Value::Int(i), Value::Int(service)])
                        .unwrap_or_else(|e| panic!("call {i} on chk-{actor} failed: {e:?}"));
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap_or_else(|_| {
            panic!("[seed {seed:#x}] checked driver panicked (seed reproduces it)")
        });
    }
    chaos.join().unwrap();
    let straggler_sent = straggler_calls.join().unwrap_or_else(|_| {
        panic!("[seed {seed:#x}] straggler driver panicked (seed reproduces it)")
    });

    // Every kill's recovery must complete so the re-homing assertions below
    // see the full picture.
    assert!(
        mesh.wait_for_recoveries(1, Duration::from_secs(15)),
        "[seed {seed:#x}] no recovery completed despite {rounds} kills"
    );

    // Exactly-once + per-actor FIFO, checked in durable state — for the
    // fixed drivers and the straggler that spanned every kill.
    let mut checks: Vec<(String, i64)> = (0..actors)
        .map(|actor| (format!("chk-{actor}"), calls))
        .collect();
    checks.push(("chk-straggler".to_owned(), straggler_sent));
    for (name, expected_calls) in checks {
        let target = ActorRef::new("Ledger", &name);
        let violation = client.call(&target, "violation", vec![]).unwrap();
        assert_eq!(
            violation,
            Value::Null,
            "[seed {seed:#x}] {name} observed out-of-order execution"
        );
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
        assert_eq!(
            entries.len() as i64,
            expected_calls,
            "[seed {seed:#x}] {name}: acknowledged records applied {} times, expected \
             exactly {expected_calls}",
            entries.len()
        );
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "[seed {seed:#x}] {name} log out of order at {expected}"
            );
        }
    }

    // Partition re-homing was observed mid-flight: at least one recovery
    // moved a partition range onto survivors, each re-homed partition was
    // fenced against its dead owner's consumers (ownership epoch > 0), and
    // every re-homed partition ends up either in a live adopter's set or —
    // if the run outlasted the retirement horizon — in some adopter's
    // retirement log (retired partitions are fenced, drained, and removed
    // from every set; retirement logs of dead adopters still count, their
    // ranges were retired before the adopter died). A bounded wait, because
    // the last kill's recovery may still be reconciling (and an adopter
    // killed mid-adoption is re-homed by its *own* recovery).
    let deadline = Instant::now() + Duration::from_secs(15);
    let (recoveries, rehomed) = loop {
        let recoveries = mesh.recovery_log();
        let rehomed: Vec<usize> = recoveries
            .iter()
            .flat_map(|record| record.rehomed_partitions.iter().copied())
            .collect();
        let adopted: Vec<usize> = mesh
            .live_components()
            .into_iter()
            .filter_map(|component| mesh.partition_set(component))
            .flat_map(|set| set.adopted().to_vec())
            .collect();
        let retired: Vec<usize> = mesh
            .all_components()
            .into_iter()
            .filter_map(|component| mesh.retired_partitions(component))
            .flatten()
            .collect();
        let missing: Vec<usize> = rehomed
            .iter()
            .copied()
            .filter(|partition| !adopted.contains(partition) && !retired.contains(partition))
            .collect();
        if !rehomed.is_empty() && missing.is_empty() {
            break (recoveries, rehomed);
        }
        assert!(
            Instant::now() < deadline,
            "[seed {seed:#x}] re-homed partitions without a live adopter after the chaos \
             settled: missing {missing:?} of {rehomed:?} (adopted: {adopted:?}, \
             retired: {retired:?}, {} recoveries)",
            recoveries.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        !recoveries.is_empty(),
        "[seed {seed:#x}] chaos rounds produced no recovery records"
    );
    let broker = mesh.broker();
    for partition in &rehomed {
        assert!(
            broker.partition_epoch(TOPIC, *partition).as_u64() >= 1,
            "[seed {seed:#x}] re-homed partition {partition} was never fenced"
        );
    }
    // Adopter spread: when several recoveries re-homed ranges, the weighted
    // (least-adopted-count) choice must not have piled everything onto one
    // survivor — every kill leaves at least one standing replica plus the
    // round's replacement, so two or more distinct adopters are available.
    let multi_range_recoveries = recoveries
        .iter()
        .filter(|record| !record.rehomed_partitions.is_empty())
        .count();
    if multi_range_recoveries >= 2 {
        let holders: std::collections::HashSet<ComponentId> = mesh
            .all_components()
            .into_iter()
            .filter(|component| {
                let adopted = mesh
                    .partition_set(*component)
                    .is_some_and(|set| !set.adopted().is_empty());
                let retired = mesh
                    .retired_partitions(*component)
                    .is_some_and(|retired| !retired.is_empty());
                adopted || retired
            })
            .collect();
        assert!(
            holders.len() >= 2,
            "[seed {seed:#x}] {multi_range_recoveries} recoveries re-homed ranges but a \
             single component adopted them all — the weighted adopter choice is not \
             spreading chained failures"
        );
    }
    eprintln!(
        "[seed {seed:#x}] ok: {} recoveries re-homed partitions {rehomed:?}",
        recoveries.len(),
    );
    mesh.shutdown();
}

#[test]
fn chaos_rebalance_seed_a11ce() {
    run_chaos(CI_SEEDS[0]);
}

#[test]
fn chaos_rebalance_seed_b0b5ed() {
    run_chaos(CI_SEEDS[1]);
}

#[test]
fn chaos_rebalance_seed_c0ffee() {
    run_chaos(CI_SEEDS[2]);
}

#[test]
fn a_four_partition_component_receives_traffic_on_every_partition() {
    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(4));
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    for i in 0..48 {
        client
            .call(
                &ActorRef::new("Ledger", format!("spread-{i}")),
                "record",
                vec![Value::Int(0)],
            )
            .unwrap();
    }
    let set = mesh.partition_set(server).expect("server partition set");
    assert_eq!(set.home().len(), 4);
    let broker = mesh.broker();
    for partition in set.home() {
        assert!(
            broker.end_offset(TOPIC, *partition) > 0,
            "home partition {partition} of the 4-partition component never received a record"
        );
    }
    mesh.shutdown();
}

#[test]
fn partitions_orphaned_by_a_total_hosting_failure_are_adopted_by_a_later_recovery() {
    // Kill the only hosting component: its recovery finds no adopter, so its
    // partition range stays parked in the topology. Once new hosting
    // components exist, the *next* recovery must sweep the leftover range
    // up along with its own victim's.
    let mesh = Mesh::new(MeshConfig::for_tests().with_partitions_per_component(2));
    let node = mesh.add_node();
    let only_host =
        mesh.add_component(node, "only-host", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    client
        .call(&ActorRef::new("Ledger", "a"), "record", vec![Value::Int(0)])
        .unwrap();
    let orphan_range = mesh.partition_set(only_host).expect("host set").all();

    mesh.kill_component(only_host);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    let first = mesh.recovery_log().remove(0);
    assert!(
        first.rehomed_partitions.is_empty(),
        "no survivor hosted anything, yet partitions were re-homed: {:?}",
        first.rehomed_partitions
    );

    // New hosting components join; kill one of them to trigger the next
    // recovery, which must adopt BOTH the new victim's range and the
    // leftover orphan range.
    let node2 = mesh.add_node();
    let survivor = mesh.add_component(node2, "survivor", |c| c.host("Ledger", || Box::new(Ledger)));
    let victim = mesh.add_component(node2, "victim", |c| c.host("Ledger", || Box::new(Ledger)));
    let victim_range = mesh.partition_set(victim).expect("victim set").all();
    mesh.kill_component(victim);
    assert!(mesh.wait_for_recoveries(2, Duration::from_secs(10)));
    let second = mesh.recovery_log().last().cloned().expect("second record");
    for partition in orphan_range.iter().chain(victim_range.iter()) {
        assert!(
            second.rehomed_partitions.contains(partition),
            "partition {partition} not re-homed by the second recovery \
             (re-homed: {:?})",
            second.rehomed_partitions
        );
    }
    let adopted = mesh.partition_set(survivor).expect("survivor set");
    for partition in orphan_range.iter().chain(victim_range.iter()) {
        assert!(
            adopted.adopted().contains(partition),
            "partition {partition} missing from the survivor's adopted set {adopted}"
        );
    }
    // The durable state written before the total failure is still served.
    assert_eq!(
        client
            .call(&ActorRef::new("Ledger", "a"), "read", vec![])
            .unwrap()
            .as_list()
            .map(<[Value]>::len),
        Some(1)
    );
    mesh.shutdown();
}

#[test]
fn chained_failures_spread_adopted_ranges_by_current_load() {
    // Recovery's adopter choice weights by *current* adopted-range count, so
    // a survivor already draining one dead range stops being the first pick
    // for the next. A long retention keeps the counts observable: the
    // retirement horizon (2 × 3600 s × 0.005 = 36 s) outlasts both recovery
    // waits.
    let mesh = Mesh::new(
        MeshConfig {
            retention: Duration::from_secs(3600),
            ..MeshConfig::for_tests()
        }
        .with_partitions_per_component(4),
    );
    let node = mesh.add_node();
    let first_victim = mesh.add_component(node, "v1", |c| c.host("Ledger", || Box::new(Ledger)));
    let b = mesh.add_component(node, "b", |c| c.host("Ledger", || Box::new(Ledger)));
    let c = mesh.add_component(node, "c", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    client
        .call(
            &ActorRef::new("Ledger", "warm"),
            "record",
            vec![Value::Int(0)],
        )
        .unwrap();

    // Kill #1: the 4-partition range spreads 2/2 over the two survivors
    // (both start at zero adopted; ties break deterministically).
    mesh.kill_component(first_victim);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    let after_first: Vec<usize> = [b, c]
        .iter()
        .map(|survivor| mesh.partition_set(*survivor).unwrap().adopted().len())
        .collect();
    assert_eq!(
        after_first,
        vec![2, 2],
        "first failure not spread evenly over equally-loaded survivors"
    );

    // A fresh component joins, then kill #2 removes one loaded survivor: its
    // 4 home + 2 adopted partitions must flow mostly to the fresh (empty)
    // component until the loads level, not round-robin from an arbitrary
    // start. Final balance: 8 total adopted over two survivors, |diff| <= 1.
    let node2 = mesh.add_node();
    let fresh = mesh.add_component(node2, "fresh", |c| c.host("Ledger", || Box::new(Ledger)));
    mesh.kill_component(b);
    assert!(mesh.wait_for_recoveries(2, Duration::from_secs(10)));
    let c_count = mesh.partition_set(c).unwrap().adopted().len();
    let fresh_count = mesh.partition_set(fresh).unwrap().adopted().len();
    assert_eq!(
        c_count + fresh_count,
        8,
        "second recovery lost or duplicated re-homed partitions"
    );
    assert!(
        c_count.abs_diff(fresh_count) <= 1,
        "chained failure piled onto one survivor: c={c_count}, fresh={fresh_count}"
    );
    assert!(
        fresh_count >= c_count,
        "the empty component should absorb at least as much of the chained \
         range (c={c_count}, fresh={fresh_count})"
    );
    mesh.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partition routing is stable under assignment-table changes: adopting
    /// any set of partitions (recovery re-homing ranges onto this component)
    /// never re-routes an existing key, and every route stays inside the
    /// home set — the invariant per-actor FIFO rests on across rebalances.
    #[test]
    fn routing_is_stable_under_assignment_table_changes(
        start in 0usize..16,
        count in 1usize..8,
        adopt_seed in 1u64..1_000_000,
        keys in 1usize..64,
    ) {
        let set = PartitionSet::contiguous(start, count);
        let routes: Vec<usize> = (0..keys)
            .map(|k| set.partition_for_key(&format!("Ledger/actor-{k}")).unwrap())
            .collect();
        // Adopt a pseudo-random batch of partitions derived from the seed,
        // including some overlapping the home range.
        let mut grown = set.clone();
        let mut rng = SplitMix64::new(adopt_seed);
        let adoptions = rng.below(1, 9);
        for _ in 0..adoptions {
            grown.adopt([rng.below(0, 64) as usize]);
        }
        for (k, expected) in routes.iter().enumerate() {
            let key = format!("Ledger/actor-{k}");
            let after = grown.partition_for_key(&key).unwrap();
            prop_assert_eq!(
                after, *expected,
                "adoption re-routed key {} from {} to {}", key, expected, after
            );
            prop_assert!(grown.home().contains(&after), "routed off the home set");
        }
    }

    /// Batch appends keep contiguous offsets per partition: whatever mix of
    /// keyed batches hits a topic, each partition's log is a gapless offset
    /// sequence and every batch's range starts exactly where the partition's
    /// previous append ended.
    #[test]
    fn batch_offsets_stay_contiguous_per_partition(
        partitions in 1usize..5,
        batches in 1usize..8,
        batch_seed in 1u64..1_000_000,
    ) {
        let broker: Broker<String> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", partitions).unwrap();
        let set = PartitionSet::contiguous(0, partitions);
        let producer = broker.producer(ComponentId::from_raw(1));
        let mut rng = SplitMix64::new(batch_seed);
        let mut expected_end: Vec<u64> = vec![0; partitions];
        for batch in 0..batches {
            let entries: Vec<(String, String)> = (0..rng.below(1, 12))
                .map(|i| {
                    let key = format!("actor-{}", rng.below(0, 10));
                    (key, format!("b{batch}-{i}"))
                })
                .collect();
            let count = entries.len() as u64;
            let mut appended = 0u64;
            for (partition, range) in producer.send_keyed_batch("t", &set, entries).unwrap() {
                prop_assert_eq!(
                    range.start, expected_end[partition],
                    "partition {} batch did not start at the previous end", partition
                );
                prop_assert!(range.end >= range.start);
                appended += range.end - range.start;
                expected_end[partition] = range.end;
                prop_assert_eq!(broker.end_offset("t", partition), range.end);
            }
            prop_assert_eq!(appended, count, "batch lost or duplicated records");
        }
        // Each partition's log really is gapless: offsets are consecutive.
        for (partition, expected) in expected_end.iter().enumerate() {
            let offsets: Vec<u64> = broker
                .read_partition("t", partition)
                .into_iter()
                .map(|record| record.offset)
                .collect();
            for pair in offsets.windows(2) {
                prop_assert_eq!(pair[1], pair[0] + 1, "offset gap in partition {}", partition);
            }
            prop_assert_eq!(
                offsets.len() as u64,
                *expected,
                "partition {} record count disagrees with its end offset", partition
            );
        }
    }
}
